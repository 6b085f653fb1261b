//! A fixed reference kernel that samples how fast the host runs code
//! right now. Other tenants of a shared host slow the simulator by up to
//! 2.5x in bursts, and the kernel slows with them: it makes random
//! read-modify-writes over 8 MiB, four times a core's L2 on the host it
//! was tuned on, so it leans on the caches the simulator leans on. It
//! runs no repository code, so a change to the simulator never changes
//! its speed.

use std::time::Instant;

/// Words in the kernel's buffer.
const WORDS: usize = 1 << 20;
/// Bytes the kernel's buffer holds resident (8 MiB), all touched by
/// [`Probe::new`].
pub const RESIDENT_BYTES: u64 = (WORDS * std::mem::size_of::<u64>()) as u64;
/// Accesses per sample.
const ACCESSES: u64 = 200_000;

/// Seconds one sample takes on a quiet host: about the fastest sample
/// seen on a 2-vCPU KVM guest of an Intel Xeon with 2 MiB L2 per core
/// (0.58 ms; the median under load there is 0.8-1.0 ms). Host time
/// divided by the sample time around it and multiplied by this reads in
/// seconds at that host's quiet speed.
pub const QUIET_SAMPLE_S: f64 = 0.6e-3;

/// The reference kernel's buffer and generator state.
pub struct Probe {
    buf: Vec<u64>,
    state: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// A probe with its buffer allocated and touched.
    #[must_use]
    pub fn new() -> Self {
        let mut probe = Self { buf: vec![1; WORDS], state: 1 };
        probe.sample_s();
        probe
    }

    /// Run one fixed sample of the kernel and return its host seconds.
    pub fn sample_s(&mut self) -> f64 {
        let mask = self.buf.len() as u64 - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        let start = Instant::now();
        for _ in 0..ACCESSES {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let i = ((x >> 33) & mask) as usize;
            acc ^= self.buf[i];
            self.buf[i] = acc.wrapping_add(x);
        }
        let s = start.elapsed().as_secs_f64();
        self.state = std::hint::black_box(x ^ acc);
        s
    }
}
