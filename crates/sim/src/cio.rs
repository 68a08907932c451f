//! Campaign storage I/O: the [`CampaignIo`] trait, its durable real
//! implementation, and a fault-injecting wrapper.
//!
//! Every byte the campaign runner persists — journal lines, epoch
//! checkpoints, salvage sidecars — flows through a [`CampaignIo`]
//! object instead of raw `std::fs` calls. That indirection buys two
//! things:
//!
//! * **Durability in one place.** [`RealIo`] implements atomic writes
//!   as write-temp → fsync(temp) → rename → fsync(parent dir), so a
//!   power loss can no longer persist the rename without the data, and
//!   journal appends are fsynced line by line.
//! * **Injectable storage faults.** [`FaultyIo`] wraps the real
//!   implementation and drives the `Storage*` kinds of the existing
//!   [`FaultPlan`] machinery: ENOSPC, silently torn writes, partial
//!   reads, failed renames (orphaning `*.tmp` files), and read-side
//!   bit-rot. The chaos campaign's self-healing ladder — per-line
//!   journal CRCs with salvage, checksum-rejected checkpoints falling
//!   back to recomputation, bounded per-cell retry with quarantine —
//!   is exercised end to end by `crates/sim/tests/storage_torture.rs`
//!   under exactly these faults.
//!
//! [`StorageEvents`] is the shared, thread-safe tally of every recovery
//! action the campaign took; its [`StorageSummary`] snapshot rides on
//! the campaign report so callers (and the `twice-exp` CLI) can tell a
//! pristine run from a degraded one.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use twice_common::fault::{FaultInjector, FaultKind, FaultPlan};

/// The storage operations the campaign runner is allowed to perform.
///
/// Implementations must be safe to share across the worker pool; all
/// methods take `&self`.
pub trait CampaignIo: Send + Sync + std::fmt::Debug {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Filesystem errors (never injected: a campaign cannot start
    /// without its directory).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads the whole file at `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors; injected partial reads and bit-rot corrupt
    /// the returned bytes instead of erroring.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path` via temp file + fsync + rename + parent
    /// fsync, so the file is atomically either old or new — and the new
    /// version survives a power loss.
    ///
    /// # Errors
    ///
    /// Filesystem errors; injected ENOSPC and rename failures.
    fn write_atomically(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Overwrites `path` with `bytes` (non-atomic; used for sidecars
    /// like `journal.corrupt` whose loss is harmless).
    ///
    /// # Errors
    ///
    /// Filesystem errors; injected ENOSPC.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `line` plus a newline to `path` (creating it if absent)
    /// and syncs the file.
    ///
    /// # Errors
    ///
    /// Filesystem errors; injected ENOSPC (torn appends persist a
    /// prefix and report success).
    fn append_line(&self, path: &Path, line: &str) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors (including `NotFound`).
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries of `dir` (files only, non-recursive).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// Retries `op` up to `attempts` times, sleeping `backoff_ms * n`
/// between tries. The campaign uses this for journal appends and
/// salvage writes so one transient fault does not abort the run.
///
/// # Errors
///
/// The last error once every attempt has failed.
pub fn with_retries<T>(
    attempts: u32,
    backoff_ms: u64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let attempts = attempts.max(1);
    let mut tried = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                tried += 1;
                twice_obs::bump(twice_obs::Ctr::SimIoRetries);
                if tried >= attempts {
                    return Err(e);
                }
                if backoff_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(
                        backoff_ms.saturating_mul(u64::from(tried)),
                    ));
                }
            }
        }
    }
}

/// The durable filesystem implementation.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

/// Syncs `path`'s parent directory so a rename into it survives a power
/// loss. Directory fsync is a Unix concept; elsewhere the rename itself
/// is the best available barrier.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

impl CampaignIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    /// Crash-ordering contract: after this returns, the file holds the
    /// complete new contents, and they cannot be lost to a power cut
    /// that the rename survived; before, it holds the complete old ones.
    fn write_atomically(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append_line(&self, path: &Path, line: &str) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// A [`CampaignIo`] that injects storage faults around [`RealIo`],
/// driven by the `Storage*` kinds of a [`FaultPlan`].
///
/// Fault decisions come from one mutex-guarded [`FaultInjector`]
/// stream, so a serial campaign's fault schedule replays exactly from
/// the same plan; under a worker pool the schedule depends on thread
/// interleaving, which is precisely the hostile regime the torture test
/// wants (recovery must not depend on *which* operation a fault lands
/// on).
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    inj: Mutex<FaultInjector>,
}

/// The default storage-fault schedule for `--storage-faults SEED`:
/// every failure mode armed at rates high enough to fire several times
/// per campaign, low enough that bounded retry recovers every cell.
pub fn default_storage_plan(seed: u64) -> FaultPlan {
    FaultPlan::with_seed(seed)
        .rate(FaultKind::StorageEnospc, 0.03)
        .rate(FaultKind::StorageTornWrite, 0.03)
        .rate(FaultKind::StoragePartialRead, 0.08)
        .rate(FaultKind::StorageRenameFail, 0.03)
        .rate(FaultKind::StorageBitRot, 0.08)
}

impl FaultyIo {
    /// Wraps the real filesystem with the given fault plan. Only the
    /// `Storage*` kinds are consulted; hardware kinds in the same plan
    /// are ignored here.
    pub fn new(plan: FaultPlan) -> FaultyIo {
        FaultyIo {
            inner: RealIo,
            inj: Mutex::new(plan.injector(0x510_F417)),
        }
    }

    /// A `FaultyIo` armed with [`default_storage_plan`].
    pub fn with_default_plan(seed: u64) -> FaultyIo {
        FaultyIo::new(default_storage_plan(seed))
    }

    /// Total storage faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.lock().injected_total()
    }

    /// Faults of `kind` injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.lock().injected(kind)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultInjector> {
        // A worker that panicked mid-injection must not wedge every
        // other worker's I/O: recover the guard, the injector state is
        // a plain counter set that cannot be torn.
        self.inj.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fire(&self, kind: FaultKind) -> bool {
        self.lock().fire(kind)
    }

    fn draw(&self, bound: u64) -> u64 {
        self.lock().draw(bound)
    }

    fn enospc() -> io::Error {
        io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC")
    }
}

impl CampaignIo for FaultyIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        if !bytes.is_empty() && self.fire(FaultKind::StoragePartialRead) {
            bytes.truncate(self.draw(bytes.len() as u64) as usize);
        }
        if !bytes.is_empty() && self.fire(FaultKind::StorageBitRot) {
            let at = self.draw(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << self.draw(8);
        }
        Ok(bytes)
    }

    fn write_atomically(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.fire(FaultKind::StorageEnospc) {
            return Err(FaultyIo::enospc());
        }
        if self.fire(FaultKind::StorageRenameFail) {
            // The temp file is written (and orphaned), the rename never
            // happens: the caller sees the error, the directory keeps a
            // stray `*.tmp` for the start-of-campaign sweep to collect.
            let _ = self.inner.write_file(&path.with_extension("tmp"), bytes);
            return Err(io::Error::other("injected rename failure"));
        }
        if self.fire(FaultKind::StorageTornWrite) {
            // A silent tear: a prefix lands at the final path and the
            // writer is told everything went fine — the outcome of a
            // power loss whose rename outlived its data. Readers must
            // catch this via checksums, never via this return value.
            let keep = self.draw(bytes.len().max(1) as u64) as usize;
            return self.inner.write_file(path, &bytes[..keep]);
        }
        self.inner.write_atomically(path, bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.fire(FaultKind::StorageEnospc) {
            return Err(FaultyIo::enospc());
        }
        self.inner.write_file(path, bytes)
    }

    fn append_line(&self, path: &Path, line: &str) -> io::Result<()> {
        if self.fire(FaultKind::StorageEnospc) {
            return Err(FaultyIo::enospc());
        }
        if self.fire(FaultKind::StorageTornWrite) {
            // Append a prefix of the line, no newline, report success:
            // the next load finds an unparseable tail and salvages.
            use std::io::Write as _;
            let keep = self.draw(line.len().max(1) as u64) as usize;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            f.write_all(&line.as_bytes()[..keep])?;
            return f.sync_all();
        }
        self.inner.append_line(path, line)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(dir)
    }
}

/// Thread-safe tallies of every self-healing action a campaign took.
#[derive(Debug, Default)]
pub struct StorageEvents {
    /// Orphaned `*.tmp` / stale `*.ckpt` files removed at campaign start.
    pub swept_orphans: AtomicU64,
    /// Times the journal was truncated to its last parseable line.
    pub journal_salvages: AtomicU64,
    /// Journal lines dropped (moved to `journal.corrupt`) by salvage.
    pub salvaged_lines_dropped: AtomicU64,
    /// Checkpoint blobs rejected (checksum/shape/digest) and recomputed
    /// from scratch instead of aborting the cell.
    pub corrupt_checkpoints: AtomicU64,
    /// Cells that failed at least once on I/O and were retried.
    pub retried_cells: AtomicU64,
    /// Cells quarantined after exhausting their retry budget.
    pub quarantined_cells: AtomicU64,
    /// Journal lines lost to write failures after retries (the cell
    /// simply reruns on the next `--resume`).
    pub journal_write_failures: AtomicU64,
}

impl StorageEvents {
    /// Adds one to `counter`.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to `counter`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain-value snapshot for the campaign report.
    pub fn summary(&self) -> StorageSummary {
        StorageSummary {
            swept_orphans: self.swept_orphans.load(Ordering::Relaxed),
            journal_salvages: self.journal_salvages.load(Ordering::Relaxed),
            salvaged_lines_dropped: self.salvaged_lines_dropped.load(Ordering::Relaxed),
            corrupt_checkpoints: self.corrupt_checkpoints.load(Ordering::Relaxed),
            retried_cells: self.retried_cells.load(Ordering::Relaxed),
            quarantined_cells: self.quarantined_cells.load(Ordering::Relaxed),
            journal_write_failures: self.journal_write_failures.load(Ordering::Relaxed),
        }
    }
}

/// The recovery ledger of one campaign run (see [`StorageEvents`] for
/// per-field meaning). All-zero means the storage layer behaved and
/// nothing needed healing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageSummary {
    /// Orphaned files swept at start.
    pub swept_orphans: u64,
    /// Journal salvage operations.
    pub journal_salvages: u64,
    /// Journal lines dropped by salvage.
    pub salvaged_lines_dropped: u64,
    /// Corrupt checkpoints recomputed from scratch.
    pub corrupt_checkpoints: u64,
    /// Cells retried after an I/O failure.
    pub retried_cells: u64,
    /// Cells quarantined after exhausting retries.
    pub quarantined_cells: u64,
    /// Journal lines lost to write failures.
    pub journal_write_failures: u64,
}

impl StorageSummary {
    /// Whether any self-healing action was taken.
    pub fn is_degraded(&self) -> bool {
        *self != StorageSummary::default()
    }
}

impl std::fmt::Display for StorageSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "swept={} journal_salvages={} lines_dropped={} corrupt_checkpoints={} \
             retried={} quarantined={} journal_write_failures={}",
            self.swept_orphans,
            self.journal_salvages,
            self.salvaged_lines_dropped,
            self.corrupt_checkpoints,
            self.retried_cells,
            self.quarantined_cells,
            self.journal_write_failures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("twice-cio-{tag}-{}", std::process::id()))
    }

    #[test]
    fn real_io_round_trips_and_leaves_no_tmp() {
        let path = temp_path("atomic");
        let io = RealIo;
        io.write_atomically(&path, b"first").expect("write");
        io.write_atomically(&path, b"second").expect("overwrite");
        assert_eq!(io.read(&path).expect("read"), b"second");
        assert!(
            !path.with_extension("tmp").exists(),
            "the temp file must be consumed by the rename"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn real_io_appends_lines_in_order() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        let io = RealIo;
        io.append_line(&path, "one").expect("append");
        io.append_line(&path, "two").expect("append");
        assert_eq!(io.read(&path).expect("read"), b"one\ntwo\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn enospc_fails_the_write_and_leaves_the_old_contents() {
        let path = temp_path("enospc");
        RealIo.write_atomically(&path, b"old").expect("seed");
        let io = FaultyIo::new(FaultPlan::with_seed(1).rate(FaultKind::StorageEnospc, 1.0));
        let err = io.write_atomically(&path, b"new").expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(&path).expect("read"), b"old");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_persists_a_prefix_and_reports_success() {
        let path = temp_path("torn");
        let io = FaultyIo::new(FaultPlan::with_seed(2).rate(FaultKind::StorageTornWrite, 1.0));
        io.write_atomically(&path, b"0123456789")
            .expect("silent tear");
        let on_disk = std::fs::read(&path).expect("read");
        assert!(
            on_disk.len() < 10,
            "a torn write must persist a strict prefix, got {} bytes",
            on_disk.len()
        );
        assert_eq!(&b"0123456789"[..on_disk.len()], &on_disk[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rename_failure_orphans_the_tmp_file() {
        let path = temp_path("rename");
        let _ = std::fs::remove_file(&path);
        let io = FaultyIo::new(FaultPlan::with_seed(3).rate(FaultKind::StorageRenameFail, 1.0));
        io.write_atomically(&path, b"payload")
            .expect_err("must fail");
        assert!(!path.exists(), "the final file must not appear");
        assert!(
            path.with_extension("tmp").exists(),
            "the orphaned tmp must be left for the sweep"
        );
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit_per_fired_read() {
        let path = temp_path("bitrot");
        RealIo.write_atomically(&path, b"payload").expect("seed");
        let io = FaultyIo::new(FaultPlan::with_seed(4).rate(FaultKind::StorageBitRot, 1.0));
        let rotten = io.read(&path).expect("read");
        let clean = b"payload";
        let flipped: u32 = rotten
            .iter()
            .zip(clean)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(rotten.len(), clean.len());
        assert_eq!(flipped, 1, "exactly one bit must differ");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partial_read_truncates_without_touching_the_file() {
        let path = temp_path("partial");
        RealIo
            .write_atomically(&path, b"full contents")
            .expect("seed");
        let io = FaultyIo::new(FaultPlan::with_seed(5).rate(FaultKind::StoragePartialRead, 1.0));
        let partial = io.read(&path).expect("read");
        assert!(partial.len() < b"full contents".len());
        assert_eq!(std::fs::read(&path).expect("read"), b"full contents");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn with_retries_survives_transient_failures() {
        let mut failures_left = 2;
        let out = with_retries(3, 0, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(io::Error::other("transient"))
            } else {
                Ok(42)
            }
        })
        .expect("third attempt succeeds");
        assert_eq!(out, 42);
        assert!(with_retries(2, 0, || io::Result::<()>::Err(io::Error::other("always"))).is_err());
    }

    #[test]
    fn storage_summary_reports_degradation() {
        let events = StorageEvents::default();
        assert!(!events.summary().is_degraded());
        StorageEvents::bump(&events.retried_cells);
        StorageEvents::add(&events.salvaged_lines_dropped, 3);
        let s = events.summary();
        assert!(s.is_degraded());
        assert_eq!(s.retried_cells, 1);
        assert_eq!(s.salvaged_lines_dropped, 3);
    }
}
