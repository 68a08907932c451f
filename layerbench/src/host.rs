//! What a figure was measured on: the host, the toolchain, the source,
//! and the cost of the timer itself. Figures whose fingerprints differ
//! are not comparable.

use std::path::Path;
use std::process::Command;
use std::time::Instant;
use twice_common::snapshot::fnv1a;

/// The host and build a run measured.
#[derive(Debug, Clone)]
pub struct HostPrint {
    /// Usable hardware threads.
    pub nproc: usize,
    /// `rustc --version` on the `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `none` outside a git
    /// repository.
    pub git_rev: String,
    /// FNV-1a over every file under `crates/` and the root manifests, in
    /// path order: identifies the source even where git does not.
    pub source_hash: u64,
    /// Whether the program's instrumentation is compiled out.
    pub obs_off: bool,
}

impl HostPrint {
    /// Collects the fingerprint; `root` is the repository checkout.
    pub fn collect(root: &Path) -> HostPrint {
        HostPrint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
                .unwrap_or_else(|| "none".into()),
            source_hash: source_hash(root),
            obs_off: obs_off(),
        }
    }
}

/// First line of a command's standard output, if it ran and succeeded.
/// `output` waits for the child, so no process outlives the call.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// Pins glibc's mmap threshold at its initial 128 KiB and so turns off
/// its dynamic growth. Left dynamic, the threshold rises after the first
/// large free, so later cells in one process reuse warm heap pages where
/// a fresh `twice-exp` process would get fresh ones — and which cells do
/// depends on the harness's own allocation history, which made a seed's
/// `defense-hooks` throughput differ by 15% for reasons other than its
/// input. Pinned, every large allocation is a fresh mapping, as in a
/// one-shot run. Returns whether the pin took effect.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_mmap_threshold() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // integers and only updates malloc's parameters. It runs first in
    // `main`, before any other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}

/// Other platforms keep their allocator's defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_mmap_threshold() -> bool {
    false
}

/// `twice_obs` reports tracing as never armed when it is compiled out.
fn obs_off() -> bool {
    let was = twice_obs::tracing();
    twice_obs::set_tracing(true);
    let off = !twice_obs::tracing();
    twice_obs::set_tracing(was);
    off
}

fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut acc = Vec::with_capacity(files.len() * 16);
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        acc.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        acc.extend_from_slice(&fnv1a(&bytes).to_le_bytes());
    }
    fnv1a(&acc)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Host nanoseconds one `Instant::now()` pair costs — the floor under
/// any call-by-call timing. Layers cheaper than a few of these are
/// timed over whole passes instead. Median of five batches.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                std::hint::black_box((Instant::now(), Instant::now()));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::report::median(&mut samples)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
