//! The three TWiCe table organizations — fa-TWiCe, pa-TWiCe (§6.1) and
//! the split short/long table (§6.2) — on one struct-of-arrays layout
//! with generation-stamped lazy pruning.
//!
//! The organizations are different *hardware layouts* of one counting
//! and pruning rule; they differ only in placement (which slot an entry
//! lands in, how it is found) and in what that placement costs. They
//! share a flat entry store so the per-ACT hot path pays no SipHash and
//! no allocation, and a prune pays only for the entries that die:
//!
//! * **One array per field** (`Arena`): `rows`, `cnts`, `lives`,
//!   `stamps`, `deaths` — contiguous, indexed by slot, no per-ACT
//!   allocation on any path the engine drives per ACT.
//! * **A row index sized by the table, not the bank**: fa and split
//!   find a row's slot through a [`RowMap`] (a std `HashMap` with a
//!   one-multiply hasher), which holds one key per live entry. A dense
//!   `row → slot` vector would grow to the highest row seen, 512 KiB
//!   per paper-size bank to index a table of a few hundred entries.
//!   pa keeps no index: it probes the row's sets, as its hardware does.
//! * **Generation-stamped lives**: a pruning pass is an epoch bump.
//!   An entry's `life` is settled lazily as `lives[s] + (epoch -
//!   stamps[s])`, so survivors are never touched by a prune.
//! * **Scheduled deaths instead of sweeps**: TWiCe's prune rule
//!   (`act_cnt >= thPI × life` survives, ages; else evicted) makes an
//!   entry's eviction epoch a *closed-form function* of its count:
//!   with base life `l` stamped at epoch `s`, the first failing epoch is
//!   `s + max(1, ⌊cnt/thPI⌋ + 2 − l)`. Each entry carries that death
//!   epoch and sits in a ring bucket keyed by it; a prune only visits
//!   the bucket that just came due. A count increment only moves the
//!   death epoch when it crosses a `thPI` multiple, so rescheduling is
//!   amortized O(1/thPI) per ACT.
//!
//! Stale bucket references (an entry was hit, removed, or re-slotted
//! after scheduling) are tolerated, never chased: a reference only kills
//! its slot if the slot is live *and* its recorded death epoch matches
//! the epoch being processed. Deaths far beyond the ring (possible only
//! via injected count corruption) park in an overflow list scanned per
//! prune. Each epoch's due slots are processed in ascending slot order,
//! the order an eager sweep frees them in — that matters for the split
//! organization, whose promote-victim search is position-dependent.
//!
//! The observable behavior (every [`RecordOutcome`], entry set and life,
//! probe statistic and free-slot recycling order) is pinned against an
//! executable spec of all three organizations in
//! `tests/soa_equivalence.rs`, `tests/table_properties.rs` and
//! `tests/scrub_properties.rs`, and by the conformance suite in
//! [`crate::table`].

use crate::entry::TableEntry;
use crate::table::{CounterTable, RecordOutcome};
use twice_common::rowmap::RowMap;
use twice_common::RowId;

/// Sentinel marking a free slot in [`Arena::rows`].
const FREE: u32 = u32::MAX;

/// The shared struct-of-arrays entry store plus the death scheduler.
///
/// Organizations own placement (which slot an entry lands in, how it is
/// found); the arena owns the per-entry fields and the pruning clock.
#[derive(Debug, Clone)]
struct Arena {
    th_pi: u64,
    /// Row tracked by each slot; [`FREE`] marks an empty slot.
    rows: Vec<u32>,
    /// Activation count per slot.
    cnts: Vec<u64>,
    /// Base life per slot, valid as of `stamps[s]`.
    lives: Vec<u64>,
    /// Epoch at which `lives[s]` was last settled.
    stamps: Vec<u64>,
    /// Scheduled eviction epoch per slot.
    deaths: Vec<u64>,
    /// Pruning passes performed so far.
    epoch: u64,
    /// Live entry count (exact: slots are freed eagerly at their death
    /// epoch, so there are no zombies to subtract).
    live: usize,
    /// Ring of death buckets: slot s with death d sits in
    /// `dying[d % dying.len()]`. Entries are hints, validated on use.
    dying: Vec<Vec<u32>>,
    /// Slots whose death is too far ahead for the ring (only reachable
    /// through injected count corruption); rescanned each prune.
    overflow: Vec<u32>,
    /// Rows whose recomputed parity disagrees with the stored bit (a
    /// small unsorted vec because it is empty outside fault-injection
    /// runs).
    corrupt: Vec<u32>,
    parity: bool,
    /// Scratch: the slots genuinely due at the current epoch, ascending.
    due: Vec<u32>,
}

impl Arena {
    fn new(capacity: usize, th_pi: u64, max_cnt: u64) -> Arena {
        assert!(capacity > 0, "capacity must be non-zero");
        assert!(th_pi > 0, "thPI must be non-zero");
        // Legal streams keep counts below the detection threshold, so
        // deaths land within ⌊max_cnt/thPI⌋ + 2 epochs of their stamp;
        // headroom on top keeps even boundary cases off the overflow
        // path. Corrupted counts beyond that park in `overflow`.
        let ring = (max_cnt / th_pi + 6) as usize;
        Arena {
            th_pi,
            rows: vec![FREE; capacity],
            cnts: vec![0; capacity],
            lives: vec![0; capacity],
            stamps: vec![0; capacity],
            deaths: vec![0; capacity],
            epoch: 0,
            live: 0,
            dying: (0..ring).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            corrupt: Vec::new(),
            parity: true,
            due: Vec::new(),
        }
    }

    /// The epoch at which the slot's entry fails `cnt >= thPI × life`,
    /// given its current count and base life. Invariant under settling.
    #[inline]
    fn death_epoch(&self, slot: usize) -> u64 {
        let q = self.cnts[slot] / self.th_pi;
        self.stamps[slot] + (q + 2).saturating_sub(self.lives[slot]).max(1)
    }

    /// The life an eager per-epoch aging would show right now.
    #[inline]
    fn life(&self, slot: usize) -> u64 {
        self.lives[slot] + (self.epoch - self.stamps[slot])
    }

    /// (Re)schedules the slot's death, pushing a ring or overflow
    /// reference only when the death epoch actually moved.
    fn schedule(&mut self, slot: usize) {
        // An injected downward count flip can compute a death epoch in
        // the past. The survive condition `cnt >= thPI × life` is
        // monotone once false (the count is fixed, the life keeps
        // growing), so an eager sweep would evict at the next prune:
        // clamp to exactly that.
        let d = self.death_epoch(slot).max(self.epoch + 1);
        if d == self.deaths[slot] {
            return;
        }
        self.deaths[slot] = d;
        self.push_ref(slot, d);
    }

    #[inline]
    fn push_ref(&mut self, slot: usize, d: u64) {
        let ring = self.dying.len() as u64;
        if d - self.epoch < ring {
            self.dying[(d % ring) as usize].push(slot as u32);
        } else {
            self.overflow.push(slot as u32);
        }
    }

    /// Installs a fresh or restored entry into a free slot.
    fn fill(&mut self, slot: usize, row: u32, cnt: u64, life: u64) {
        debug_assert_eq!(self.rows[slot], FREE, "fill of an occupied slot");
        debug_assert_ne!(row, FREE, "row id u32::MAX is reserved");
        self.rows[slot] = row;
        self.cnts[slot] = cnt;
        self.lives[slot] = life;
        self.stamps[slot] = self.epoch;
        self.deaths[slot] = 0; // force a reschedule
        self.live += 1;
        self.schedule(slot);
    }

    /// Counts one hit: settles the lazy life, bumps the count, and
    /// reschedules the death if it moved. Returns the new count.
    fn hit(&mut self, slot: usize) -> u64 {
        self.lives[slot] = self.life(slot);
        self.stamps[slot] = self.epoch;
        self.cnts[slot] += 1;
        self.schedule(slot);
        self.cnts[slot]
    }

    /// Frees the slot, clearing any pending corruption mark. The caller
    /// handles organization bookkeeping (indexes, free lists).
    fn kill(&mut self, slot: usize) {
        let row = self.rows[slot];
        self.rows[slot] = FREE;
        self.live -= 1;
        self.launder(row);
    }

    /// Moves the entry in `from` to the empty slot `to`, carrying its
    /// death schedule along (corruption marks are keyed by row and ride
    /// for free).
    fn move_slot(&mut self, from: usize, to: usize) {
        debug_assert_eq!(self.rows[to], FREE, "move into an occupied slot");
        self.rows[to] = self.rows[from];
        self.cnts[to] = self.cnts[from];
        self.lives[to] = self.lives[from];
        self.stamps[to] = self.stamps[from];
        self.deaths[to] = self.deaths[from];
        self.rows[from] = FREE;
        self.push_ref(to, self.deaths[to]);
    }

    /// Swaps the entries in two occupied slots, re-referencing both.
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.rows.swap(a, b);
        self.cnts.swap(a, b);
        self.lives.swap(a, b);
        self.stamps.swap(a, b);
        self.deaths.swap(a, b);
        self.push_ref(a, self.deaths[a]);
        self.push_ref(b, self.deaths[b]);
    }

    fn entry(&self, slot: usize) -> TableEntry {
        TableEntry {
            row: RowId(self.rows[slot]),
            act_cnt: self.cnts[slot],
            life: self.life(slot),
        }
    }

    fn entries_into(&self, out: &mut Vec<TableEntry>) {
        out.clear();
        for slot in 0..self.rows.len() {
            if self.rows[slot] != FREE {
                out.push(self.entry(slot));
            }
        }
    }

    /// Advances the epoch and gathers the slots genuinely due to die
    /// into `self.due`, ascending — the same order an eager sweep frees
    /// slots in.
    fn collect_due(&mut self) {
        self.epoch += 1;
        let ring = self.dying.len() as u64;
        let idx = (self.epoch % ring) as usize;
        let mut bucket = std::mem::take(&mut self.dying[idx]);
        self.due.clear();
        for &s in &bucket {
            let slot = s as usize;
            if self.rows[slot] != FREE && self.deaths[slot] == self.epoch {
                self.due.push(s);
            }
        }
        bucket.clear();
        self.dying[idx] = bucket;
        if !self.overflow.is_empty() {
            let epoch = self.epoch;
            let Arena {
                overflow,
                rows,
                deaths,
                due,
                ..
            } = self;
            overflow.retain(|&s| {
                let slot = s as usize;
                if rows[slot] == FREE || deaths[slot] < epoch {
                    return false; // dead, or a stale reference
                }
                if deaths[slot] == epoch {
                    due.push(s);
                    return false;
                }
                true
            });
        }
        self.due.sort_unstable();
        self.due.dedup();
    }

    fn is_corrupt(&self, row: u32) -> bool {
        self.corrupt.contains(&row)
    }

    fn launder(&mut self, row: u32) {
        if let Some(p) = self.corrupt.iter().position(|&r| r == row) {
            self.corrupt.swap_remove(p);
        }
    }

    /// Toggles the parity-mismatch mark (an even number of upsets
    /// between writes cancels out, exactly as single-bit parity would
    /// miss it).
    fn toggle_corrupt(&mut self, row: u32) {
        if let Some(p) = self.corrupt.iter().position(|&r| r == row) {
            self.corrupt.swap_remove(p);
        } else {
            self.corrupt.push(row);
        }
    }

    fn mark_corrupt(&mut self, row: u32) {
        if !self.is_corrupt(row) {
            self.corrupt.push(row);
        }
    }

    fn flip_count_bit(&mut self, slot: usize, bit: u32) {
        assert!(bit < 64, "bit index out of range");
        self.cnts[slot] ^= 1u64 << bit;
        self.schedule(slot);
    }

    fn corrupted_rows(&self) -> Vec<RowId> {
        let mut rows: Vec<RowId> = self.corrupt.iter().map(|&r| RowId(r)).collect();
        rows.sort_unstable();
        rows
    }

    fn scrub_victims_into(&self, out: &mut Vec<RowId>) {
        out.clear();
        if !self.parity {
            return;
        }
        out.extend(self.corrupt.iter().map(|&r| RowId(r)));
        out.sort_unstable();
    }

    fn clear(&mut self) {
        self.rows.iter_mut().for_each(|r| *r = FREE);
        self.epoch = 0;
        self.live = 0;
        for b in &mut self.dying {
            b.clear();
        }
        self.overflow.clear();
        self.corrupt.clear();
        self.due.clear();
    }
}

/// fa-TWiCe on the struct-of-arrays arena: the CAM is modeled by a
/// [`RowMap`] from row to slot, sized by the entries held rather than by
/// the bank's row space, so a lookup is one multiply and a probe of a
/// small table, with no SipHash.
#[derive(Debug, Clone)]
pub struct SoaFa {
    a: Arena,
    /// The slot of each tracked row.
    idx: RowMap<u32>,
    free: Vec<u32>,
}

impl SoaFa {
    /// Creates a table with `capacity` entry slots. `th_pi` binds the
    /// pruning threshold at construction (death epochs are precomputed
    /// from it); `max_cnt` sizes the death ring — pass the detection
    /// threshold the engine retires entries at.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `th_pi` is zero.
    pub fn new(capacity: usize, th_pi: u64, max_cnt: u64) -> SoaFa {
        SoaFa {
            a: Arena::new(capacity, th_pi, max_cnt),
            idx: RowMap::default(),
            free: (0..capacity as u32).rev().collect(),
        }
    }

    #[inline]
    fn slot_of(&self, row: RowId) -> Option<usize> {
        self.idx.get(&row.0).map(|&s| s as usize)
    }

    #[inline]
    fn set_index(&mut self, row: u32, slot: u32) {
        self.idx.insert(row, slot);
    }

    fn free_slot(&mut self, slot: usize) {
        let row = self.a.rows[slot];
        self.a.kill(slot);
        self.idx.remove(&row);
        self.free.push(slot as u32);
    }
}

impl CounterTable for SoaFa {
    fn record_act(&mut self, row: RowId) -> RecordOutcome {
        if let Some(slot) = self.slot_of(row) {
            if !self.a.corrupt.is_empty() {
                if self.a.parity && self.a.is_corrupt(row.0) {
                    return RecordOutcome::Corrupted;
                }
                // A legitimate read-modify-write recomputes the stored
                // parity, laundering any (unchecked) corruption.
                self.a.launder(row.0);
            }
            return RecordOutcome::Counted {
                act_cnt: self.a.hit(slot),
            };
        }
        let Some(slot) = self.free.pop() else {
            return RecordOutcome::TableFull;
        };
        self.a.fill(slot as usize, row.0, 1, 1);
        self.set_index(row.0, slot);
        RecordOutcome::Counted { act_cnt: 1 }
    }

    fn remove(&mut self, row: RowId) {
        if let Some(slot) = self.slot_of(row) {
            self.free_slot(slot);
        }
    }

    fn prune(&mut self, th_pi: u64) {
        debug_assert_eq!(th_pi, self.a.th_pi, "SoA tables bind thPI at construction");
        self.a.collect_due();
        for i in 0..self.a.due.len() {
            let slot = self.a.due[i] as usize;
            if self.a.rows[slot] != FREE {
                self.free_slot(slot);
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.a.live
    }

    fn capacity(&self) -> usize {
        self.a.rows.len()
    }

    fn get(&self, row: RowId) -> Option<TableEntry> {
        self.slot_of(row).map(|s| self.a.entry(s))
    }

    fn entries_into(&self, out: &mut Vec<TableEntry>) {
        self.a.entries_into(out);
    }

    fn clear(&mut self) {
        self.a.clear();
        self.idx.clear();
        self.free.clear();
        self.free.extend((0..self.a.rows.len() as u32).rev());
    }

    fn set_parity_checking(&mut self, enabled: bool) {
        self.a.parity = enabled;
    }

    fn inject_bit_flip(&mut self, row: RowId, bit: u32) -> bool {
        let Some(slot) = self.slot_of(row) else {
            return false;
        };
        self.a.flip_count_bit(slot, bit);
        self.a.toggle_corrupt(row.0);
        true
    }

    fn scrub_into(&mut self, out: &mut Vec<RowId>) {
        self.a.scrub_victims_into(out);
        for &row in out.iter() {
            self.remove(row);
        }
    }

    fn insert_entry(&mut self, entry: TableEntry) -> bool {
        if self.slot_of(entry.row).is_some() {
            return false;
        }
        let Some(slot) = self.free.pop() else {
            return false;
        };
        self.a
            .fill(slot as usize, entry.row.0, entry.act_cnt, entry.life);
        self.set_index(entry.row.0, slot);
        true
    }

    fn corrupted_rows(&self) -> Vec<RowId> {
        self.a.corrupted_rows()
    }

    fn mark_corrupted(&mut self, row: RowId) {
        if self.slot_of(row).is_some() {
            self.a.mark_corrupt(row.0);
        }
    }
}

/// [`SoaPa`] probe statistics for the energy model (experiment A1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaStats {
    /// Lookups satisfied by the preferred set alone (no borrowing to
    /// chase and the row was found or absent with all SB indicators zero).
    pub preferred_only: u64,
    /// Lookups that had to probe one or more non-preferred sets.
    pub extended: u64,
    /// Total individual set probes performed.
    pub set_probes: u64,
    /// Insertions that had to borrow a slot from a foreign set.
    pub borrowed_insertions: u64,
}

/// pa-TWiCe on the struct-of-arrays arena: sets are contiguous runs of
/// `ways` slots, the set-borrowing indicators are one flat array, and a
/// probe is a branch-light linear scan over a `u32` row lane — but the
/// probe *statistics* (the energy model) count set probes exactly as
/// the hardware of Figure 6 performs them.
#[derive(Debug, Clone)]
pub struct SoaPa {
    a: Arena,
    /// `sb[s * nsets + p]` = entries with preferred set `p` hosted by
    /// set `s` (`s != p`).
    sb: Vec<u32>,
    nsets: usize,
    ways: usize,
    stats: PaStats,
}

impl SoaPa {
    /// Creates a table of `sets × ways` slots. See [`SoaFa::new`] for
    /// the `th_pi` / `max_cnt` contract.
    ///
    /// # Panics
    ///
    /// Panics if `sets`, `ways` or `th_pi` is zero.
    pub fn new(sets: usize, ways: usize, th_pi: u64, max_cnt: u64) -> SoaPa {
        assert!(sets > 0 && ways > 0, "geometry must be non-zero");
        SoaPa {
            a: Arena::new(sets * ways, th_pi, max_cnt),
            sb: vec![0; sets * sets],
            nsets: sets,
            ways,
            stats: PaStats::default(),
        }
    }

    /// The paper's geometry: 64 ways (§6.1/§7.1), sized to cover
    /// `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `th_pi` is zero.
    pub fn with_capacity_64way(capacity: usize, th_pi: u64, max_cnt: u64) -> SoaPa {
        assert!(capacity > 0, "capacity must be non-zero");
        SoaPa::new(capacity.div_ceil(64), 64, th_pi, max_cnt)
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.nsets
    }

    /// Ways per set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Probe statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> PaStats {
        self.stats
    }

    #[inline]
    fn preferred_set(&self, row: RowId) -> usize {
        row.index() % self.nsets
    }

    #[inline]
    fn probe_set(&self, set: usize, row: u32) -> Option<usize> {
        let base = set * self.ways;
        self.a.rows[base..base + self.ways]
            .iter()
            .position(|&r| r == row)
            .map(|w| base + w)
    }

    #[inline]
    fn free_way(&self, set: usize) -> Option<usize> {
        let base = set * self.ways;
        self.a.rows[base..base + self.ways]
            .iter()
            .position(|&r| r == FREE)
            .map(|w| base + w)
    }

    /// Finds `row`'s slot, counting probes (including the obs export).
    fn find(&mut self, row: RowId) -> (Option<usize>, bool) {
        let before = self.stats.set_probes;
        let out = self.find_inner(row);
        let probes = self.stats.set_probes - before;
        twice_obs::add(twice_obs::Ctr::CorePaSetProbes, probes);
        twice_obs::record(twice_obs::HistId::CoreProbeSets, probes);
        out
    }

    fn find_inner(&mut self, row: RowId) -> (Option<usize>, bool) {
        let pref = self.preferred_set(row);
        self.stats.set_probes += 1;
        if let Some(slot) = self.probe_set(pref, row.0) {
            return (Some(slot), false);
        }
        // Chase borrowed entries: only sets hosting entries of `pref`.
        let mut extended = false;
        for s in 0..self.nsets {
            if s == pref || self.sb[s * self.nsets + pref] == 0 {
                continue;
            }
            extended = true;
            self.stats.set_probes += 1;
            if let Some(slot) = self.probe_set(s, row.0) {
                return (Some(slot), true);
            }
        }
        (None, extended)
    }

    fn note_lookup(&mut self, extended: bool) {
        if extended {
            self.stats.extended += 1;
        } else {
            self.stats.preferred_only += 1;
        }
    }

    fn free_slot(&mut self, slot: usize) {
        let row = self.a.rows[slot];
        let s = slot / self.ways;
        let pref = RowId(row).index() % self.nsets;
        self.a.kill(slot);
        if s != pref {
            debug_assert!(self.sb[s * self.nsets + pref] > 0);
            self.sb[s * self.nsets + pref] -= 1;
        }
    }
}

impl CounterTable for SoaPa {
    fn record_act(&mut self, row: RowId) -> RecordOutcome {
        let (found, extended) = self.find(row);
        self.note_lookup(extended);
        if let Some(slot) = found {
            if !self.a.corrupt.is_empty() {
                if self.a.parity && self.a.is_corrupt(row.0) {
                    return RecordOutcome::Corrupted;
                }
                self.a.launder(row.0);
            }
            return RecordOutcome::Counted {
                act_cnt: self.a.hit(slot),
            };
        }
        // Insert: preferred set first (Figure 6 step 4).
        let pref = self.preferred_set(row);
        if let Some(slot) = self.free_way(pref) {
            self.a.fill(slot, row.0, 1, 1);
            return RecordOutcome::Counted { act_cnt: 1 };
        }
        for s in 0..self.nsets {
            if s == pref {
                continue;
            }
            if let Some(slot) = self.free_way(s) {
                self.a.fill(slot, row.0, 1, 1);
                self.sb[s * self.nsets + pref] += 1;
                self.stats.borrowed_insertions += 1;
                twice_obs::bump(twice_obs::Ctr::CorePaBorrowedInserts);
                return RecordOutcome::Counted { act_cnt: 1 };
            }
        }
        RecordOutcome::TableFull
    }

    fn remove(&mut self, row: RowId) {
        let (found, _) = self.find(row);
        if let Some(slot) = found {
            self.free_slot(slot);
        }
    }

    fn prune(&mut self, th_pi: u64) {
        debug_assert_eq!(th_pi, self.a.th_pi, "SoA tables bind thPI at construction");
        self.a.collect_due();
        for i in 0..self.a.due.len() {
            let slot = self.a.due[i] as usize;
            if self.a.rows[slot] != FREE {
                self.free_slot(slot);
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.a.live
    }

    fn capacity(&self) -> usize {
        self.nsets * self.ways
    }

    fn get(&self, row: RowId) -> Option<TableEntry> {
        let pref = self.preferred_set(row);
        if let Some(slot) = self.probe_set(pref, row.0) {
            return Some(self.a.entry(slot));
        }
        for s in 0..self.nsets {
            if s != pref && self.sb[s * self.nsets + pref] > 0 {
                if let Some(slot) = self.probe_set(s, row.0) {
                    return Some(self.a.entry(slot));
                }
            }
        }
        None
    }

    fn entries_into(&self, out: &mut Vec<TableEntry>) {
        self.a.entries_into(out);
    }

    fn clear(&mut self) {
        self.a.clear();
        self.sb.iter_mut().for_each(|c| *c = 0);
    }

    fn set_parity_checking(&mut self, enabled: bool) {
        self.a.parity = enabled;
    }

    fn inject_bit_flip(&mut self, row: RowId, bit: u32) -> bool {
        // Locate without going through `find`: a physical upset is not a
        // lookup and must not perturb the probe-energy statistics.
        for slot in 0..self.a.rows.len() {
            if self.a.rows[slot] == row.0 {
                self.a.flip_count_bit(slot, bit);
                self.a.toggle_corrupt(row.0);
                return true;
            }
        }
        false
    }

    fn scrub_into(&mut self, out: &mut Vec<RowId>) {
        self.a.scrub_victims_into(out);
        // `remove` goes through `find` on purpose: the scrub pass pays
        // (and counts) a lookup per eviction.
        for &row in out.iter() {
            self.remove(row);
        }
    }

    fn insert_entry(&mut self, entry: TableEntry) -> bool {
        if self.get(entry.row).is_some() {
            return false;
        }
        let pref = self.preferred_set(entry.row);
        if let Some(slot) = self.free_way(pref) {
            self.a.fill(slot, entry.row.0, entry.act_cnt, entry.life);
            return true;
        }
        for s in 0..self.nsets {
            if s == pref {
                continue;
            }
            if let Some(slot) = self.free_way(s) {
                self.a.fill(slot, entry.row.0, entry.act_cnt, entry.life);
                self.sb[s * self.nsets + pref] += 1;
                return true;
            }
        }
        false
    }

    fn corrupted_rows(&self) -> Vec<RowId> {
        self.a.corrupted_rows()
    }

    fn mark_corrupted(&mut self, row: RowId) {
        if self.get(row).is_some() {
            self.a.mark_corrupt(row.0);
        }
    }
}

/// The split short/long organization on the struct-of-arrays arena:
/// slots `0..short_capacity` are the short sub-table, the rest are long.
/// Absolute slot numbering keeps the free lists in order for free —
/// ascending due-slot processing frees shorts before longs in slot
/// order, exactly like an eager short-then-long sweep.
#[derive(Debug, Clone)]
pub struct SoaSplit {
    a: Arena,
    short_cap: usize,
    /// The slot of each tracked row (see [`SoaFa`]).
    idx: RowMap<u32>,
    short_free: Vec<u32>,
    long_free: Vec<u32>,
    promotions: u64,
    spills: u64,
    /// Whether any short slot may hold an entry that could survive the
    /// next prune (promotion failed with the long sub-table full, a
    /// restored survivor landed short, or a count upset hit a short
    /// entry). While set, prunes run the eager short sweep so survivors
    /// move into long slots as they free up; the flag clears itself once
    /// no such entry remains.
    short_survivors: bool,
}

impl SoaSplit {
    /// Creates a split table with `short_capacity` + `long_capacity`
    /// slots, promoting entries at `th_pi` activations. See
    /// [`SoaFa::new`] for the `max_cnt` contract.
    ///
    /// # Panics
    ///
    /// Panics if any capacity or `th_pi` is zero.
    pub fn new(short_capacity: usize, long_capacity: usize, th_pi: u64, max_cnt: u64) -> SoaSplit {
        assert!(
            short_capacity > 0 && long_capacity > 0,
            "capacities must be non-zero"
        );
        let total = short_capacity + long_capacity;
        SoaSplit {
            a: Arena::new(total, th_pi, max_cnt),
            short_cap: short_capacity,
            idx: RowMap::default(),
            short_free: (0..short_capacity as u32).rev().collect(),
            long_free: (short_capacity as u32..total as u32).rev().collect(),
            promotions: 0,
            spills: 0,
            short_survivors: false,
        }
    }

    /// Short-sub-table slots.
    #[inline]
    pub fn short_capacity(&self) -> usize {
        self.short_cap
    }

    /// Long-sub-table slots.
    #[inline]
    pub fn long_capacity(&self) -> usize {
        self.a.rows.len() - self.short_cap
    }

    /// Promotions performed so far.
    #[inline]
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Fresh inserts that spilled into long slots so far.
    #[inline]
    pub fn spills(&self) -> u64 {
        self.spills
    }

    #[inline]
    fn slot_of(&self, row: RowId) -> Option<usize> {
        self.idx.get(&row.0).map(|&s| s as usize)
    }

    #[inline]
    fn set_index(&mut self, row: u32, slot: usize) {
        self.idx.insert(row, slot as u32);
    }

    fn free_slot(&mut self, slot: usize) {
        let row = self.a.rows[slot];
        self.a.kill(slot);
        self.idx.remove(&row);
        if slot < self.short_cap {
            self.short_free.push(slot as u32);
        } else {
            self.long_free.push(slot as u32);
        }
    }

    /// Moves the short entry at `slot` into the long sub-table.
    /// Returns `false` when no room could be made.
    fn promote(&mut self, slot: usize) -> bool {
        if let Some(l) = self.long_free.pop() {
            let row = self.a.rows[slot];
            self.a.move_slot(slot, l as usize);
            self.set_index(row, l as usize);
            self.short_free.push(slot as u32);
            self.promotions += 1;
            return true;
        }
        // Long full: swap with a spilled fresh entry (life 1, below thPI).
        let victim = (self.short_cap..self.a.rows.len()).find(|&l| {
            self.a.rows[l] != FREE && self.a.life(l) == 1 && self.a.cnts[l] < self.a.th_pi
        });
        let Some(l) = victim else {
            return false;
        };
        self.a.swap_slots(slot, l);
        self.set_index(self.a.rows[l], l);
        self.set_index(self.a.rows[slot], slot);
        self.promotions += 1;
        true
    }

    /// The eager short sweep, run only while `short_survivors` is set.
    /// A short entry that survives this prune moves into a free long
    /// slot, keeping the life it was aged to, or stays short if none is
    /// free; every entry is aged exactly once per prune (§4.2 step 4).
    /// Kills happen in slot order (shorts during this sweep, longs later
    /// in the due loop), so free-list recycling order matches an eager
    /// short-then-long sweep.
    fn eager_short_sweep(&mut self) {
        let mut any_left = false;
        for slot in 0..self.short_cap {
            if self.a.rows[slot] == FREE {
                continue;
            }
            // The survive check uses the life *before* this epoch's aging.
            let life_before = self.a.lives[slot] + (self.a.epoch - 1 - self.a.stamps[slot]);
            if self.a.cnts[slot] < self.a.th_pi * life_before {
                self.free_slot(slot);
            } else if let Some(l) = self.long_free.pop() {
                let row = self.a.rows[slot];
                self.a.move_slot(slot, l as usize);
                self.set_index(row, l as usize);
                self.short_free.push(slot as u32);
            } else {
                any_left = true;
            }
        }
        self.short_survivors = any_left;
    }
}

impl CounterTable for SoaSplit {
    fn record_act(&mut self, row: RowId) -> RecordOutcome {
        if let Some(slot) = self.slot_of(row) {
            if !self.a.corrupt.is_empty() {
                if self.a.parity && self.a.is_corrupt(row.0) {
                    return RecordOutcome::Corrupted;
                }
                self.a.launder(row.0);
            }
            let act_cnt = self.a.hit(slot);
            if slot < self.short_cap && act_cnt >= self.a.th_pi && !self.promote(slot) {
                // Cannot represent the count in a short entry and no
                // long slot is available: the entry stays short at or
                // above thPI, so the next prune must run the eager
                // sweep to move it into long once a slot frees.
                self.short_survivors = true;
                return RecordOutcome::TableFull;
            }
            return RecordOutcome::Counted { act_cnt };
        }
        // Fresh insert: short first, spill to long.
        if let Some(s) = self.short_free.pop() {
            self.a.fill(s as usize, row.0, 1, 1);
            self.set_index(row.0, s as usize);
            return RecordOutcome::Counted { act_cnt: 1 };
        }
        if let Some(s) = self.long_free.pop() {
            self.a.fill(s as usize, row.0, 1, 1);
            self.set_index(row.0, s as usize);
            self.spills += 1;
            return RecordOutcome::Counted { act_cnt: 1 };
        }
        RecordOutcome::TableFull
    }

    fn remove(&mut self, row: RowId) {
        if let Some(slot) = self.slot_of(row) {
            self.free_slot(slot);
        }
    }

    fn prune(&mut self, th_pi: u64) {
        debug_assert_eq!(th_pi, self.a.th_pi, "SoA tables bind thPI at construction");
        self.a.collect_due();
        if self.short_survivors {
            self.eager_short_sweep();
        }
        for i in 0..self.a.due.len() {
            let slot = self.a.due[i] as usize;
            if self.a.rows[slot] != FREE {
                self.free_slot(slot);
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.a.live
    }

    fn capacity(&self) -> usize {
        self.a.rows.len()
    }

    fn get(&self, row: RowId) -> Option<TableEntry> {
        self.slot_of(row).map(|s| self.a.entry(s))
    }

    fn entries_into(&self, out: &mut Vec<TableEntry>) {
        self.a.entries_into(out);
    }

    fn clear(&mut self) {
        self.a.clear();
        self.idx.clear();
        self.short_free.clear();
        self.short_free.extend((0..self.short_cap as u32).rev());
        self.long_free.clear();
        self.long_free
            .extend((self.short_cap as u32..self.a.rows.len() as u32).rev());
        self.short_survivors = false;
    }

    fn set_parity_checking(&mut self, enabled: bool) {
        self.a.parity = enabled;
    }

    fn inject_bit_flip(&mut self, row: RowId, bit: u32) -> bool {
        let Some(slot) = self.slot_of(row) else {
            return false;
        };
        self.a.flip_count_bit(slot, bit);
        self.a.toggle_corrupt(row.0);
        if slot < self.short_cap {
            // The upset may have pushed a short entry over thPI; let the
            // next prune run the eager sweep and sort it out.
            self.short_survivors = true;
        }
        true
    }

    fn scrub_into(&mut self, out: &mut Vec<RowId>) {
        self.a.scrub_victims_into(out);
        for &row in out.iter() {
            self.remove(row);
        }
    }

    fn insert_entry(&mut self, entry: TableEntry) -> bool {
        if self.slot_of(entry.row).is_some() {
            return false;
        }
        // Proven entries (aged, or counting past the short width) belong
        // in the long sub-table; fresh ones go short, spilling when full —
        // the same placement record_act/promote would have produced.
        let needs_long = entry.life > 1 || entry.act_cnt >= self.a.th_pi;
        let slot = if needs_long {
            self.long_free.pop().or_else(|| self.short_free.pop())
        } else {
            self.short_free.pop().or_else(|| self.long_free.pop())
        };
        let Some(s) = slot else {
            return false;
        };
        self.a
            .fill(s as usize, entry.row.0, entry.act_cnt, entry.life);
        self.set_index(entry.row.0, s as usize);
        if (s as usize) < self.short_cap && needs_long {
            self.short_survivors = true;
        }
        true
    }

    fn corrupted_rows(&self) -> Vec<RowId> {
        self.a.corrupted_rows()
    }

    fn mark_corrupted(&mut self, row: RowId) {
        if self.slot_of(row).is_some() {
            self.a.mark_corrupt(row.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::conformance;

    #[test]
    fn fa_basic_contract() {
        conformance::check_basic_contract(&mut SoaFa::new(16, 4, 256));
    }

    #[test]
    fn fa_overflow_reporting() {
        conformance::check_overflow_reporting(&mut SoaFa::new(8, 4, 256));
    }

    #[test]
    fn fa_into_variants() {
        conformance::check_into_variants(&mut SoaFa::new(16, 4, 256));
    }

    #[test]
    fn pa_basic_contract() {
        conformance::check_basic_contract(&mut SoaPa::new(4, 8, 4, 256));
    }

    #[test]
    fn pa_overflow_reporting() {
        conformance::check_overflow_reporting(&mut SoaPa::new(2, 4, 4, 256));
    }

    #[test]
    fn pa_into_variants() {
        conformance::check_into_variants(&mut SoaPa::new(4, 8, 4, 256));
    }

    #[test]
    fn split_basic_contract() {
        conformance::check_basic_contract(&mut SoaSplit::new(8, 8, 4, 256));
    }

    #[test]
    fn split_overflow_reporting() {
        conformance::check_overflow_reporting(&mut SoaSplit::new(4, 4, 4, 256));
    }

    #[test]
    fn split_into_variants() {
        conformance::check_into_variants(&mut SoaSplit::new(8, 8, 4, 256));
    }

    #[test]
    fn death_ring_survives_window_straddling_gaps() {
        // An entry hammered just under thPI per epoch stays alive across
        // many epochs (far beyond the ring length of max_cnt/thPI + 6),
        // then dies exactly one epoch after the hits stop.
        let mut t = SoaFa::new(8, 4, 16); // ring length 10
        for epoch in 0..64 {
            for _ in 0..4 {
                t.record_act(RowId(7));
            }
            t.prune(4);
            assert_eq!(
                t.get(RowId(7)).unwrap().life,
                epoch + 2,
                "survivor must age every epoch"
            );
        }
        t.prune(4);
        assert_eq!(t.get(RowId(7)), None, "starved entry must die");
    }

    #[test]
    fn overflow_parks_absurd_corrupted_counts() {
        let mut t = SoaFa::new(8, 4, 16); // ring length 10
        t.record_act(RowId(3));
        // Flip bit 40: the count becomes astronomically large, the death
        // epoch lands far beyond the ring. Parity off = silent corruption.
        t.set_parity_checking(false);
        assert!(t.inject_bit_flip(RowId(3), 40));
        for _ in 0..32 {
            t.prune(4);
            assert!(
                t.get(RowId(3)).is_some(),
                "corrupted count must keep surviving, like an eager sweep"
            );
        }
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = SoaFa::new(2, 4, 256);
        t.record_act(RowId(1));
        t.record_act(RowId(2));
        assert_eq!(t.record_act(RowId(3)), RecordOutcome::TableFull);
        t.remove(RowId(1));
        assert_eq!(
            t.record_act(RowId(3)),
            RecordOutcome::Counted { act_cnt: 1 }
        );
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn figure_4_walkthrough() {
        // Reproduce the Figure 4 operation example end to end.
        let mut t = SoaFa::new(8, 4, 32_768);
        // Initial counts: 0x50 at 32767, 0xC0 at 7 (life progression is
        // covered elsewhere).
        for _ in 0..32_767 {
            t.record_act(RowId(0x50));
        }
        for _ in 0..7 {
            t.record_act(RowId(0xC0));
        }
        // ① ACT 0xF0: new entry inserted.
        assert_eq!(
            t.record_act(RowId(0xF0)),
            RecordOutcome::Counted { act_cnt: 1 }
        );
        // ② ACT 0xC0: found, incremented to 8.
        assert_eq!(
            t.record_act(RowId(0xC0)),
            RecordOutcome::Counted { act_cnt: 8 }
        );
        // ③ ACT 0x50 reaches thRH = 32768: the engine would ARR + retire.
        assert_eq!(
            t.record_act(RowId(0x50)),
            RecordOutcome::Counted { act_cnt: 32_768 }
        );
        t.remove(RowId(0x50));
        // ④ Prune with thPI=4: 0xC0 (8 >= 4*1) survives; 0xF0 (1 < 4) goes.
        t.prune(4);
        assert!(t.get(RowId(0xC0)).is_some());
        assert_eq!(t.get(RowId(0xF0)), None);
        assert_eq!(t.get(RowId(0x50)), None);
    }

    #[test]
    fn paper_geometry_is_9_by_64() {
        let t = SoaPa::with_capacity_64way(556, 4, 32_768);
        assert_eq!(t.num_sets(), 9);
        assert_eq!(t.ways(), 64);
        assert_eq!(t.capacity(), 576);
    }

    #[test]
    fn borrowing_tracks_sb_indicators() {
        // 2 sets x 2 ways; rows 0,2,4 prefer set 0; rows 1,3 prefer set 1.
        let mut t = SoaPa::new(2, 2, 4, 256);
        t.record_act(RowId(0));
        t.record_act(RowId(2));
        // Set 0 full: row 4 borrows from set 1.
        t.record_act(RowId(4));
        assert_eq!(t.stats().borrowed_insertions, 1);
        // Lookup of row 4 must chase into set 1 and find it.
        assert!(matches!(
            t.record_act(RowId(4)),
            RecordOutcome::Counted { act_cnt: 2 }
        ));
        assert!(t.stats().extended >= 1);
        // Removing it restores the indicator: a later miss of another
        // set-0 row stays preferred-only.
        t.remove(RowId(4));
        t.remove(RowId(0));
        let before = t.stats().set_probes;
        t.record_act(RowId(6)); // miss, set 0 has space, no SB chase
        assert_eq!(t.stats().set_probes, before + 1);
    }

    #[test]
    fn prune_maintains_sb_indicators() {
        let mut t = SoaPa::new(2, 1, 4, 256);
        t.record_act(RowId(0)); // set 0
        t.record_act(RowId(2)); // borrows set 1
        assert_eq!(t.stats().borrowed_insertions, 1);
        t.prune(4); // both have act_cnt < 4: pruned, SB back to 0
        assert_eq!(t.occupancy(), 0);
        // Fresh borrowed insert works again and lookups don't over-probe:
        // row 4 prefers set 0, which row 0 fills, and with every SB
        // indicator zero the miss costs one probe before row 4 borrows
        // set 1.
        t.record_act(RowId(0));
        let before = t.stats().set_probes;
        t.record_act(RowId(4));
        assert_eq!(t.stats().set_probes, before + 1);
    }

    #[test]
    fn preferred_hit_costs_single_probe() {
        let mut t = SoaPa::new(4, 4, 4, 256);
        t.record_act(RowId(5));
        let before = t.stats().set_probes;
        t.record_act(RowId(5));
        assert_eq!(t.stats().set_probes, before + 1);
        assert!(t.stats().preferred_only >= 2);
    }

    #[test]
    fn fourth_activation_promotes_to_long() {
        let mut t = SoaSplit::new(4, 4, 4, 256);
        for i in 1..=3 {
            assert_eq!(
                t.record_act(RowId(9)),
                RecordOutcome::Counted { act_cnt: i }
            );
            assert_eq!(t.promotions(), 0, "stays short below thPI");
        }
        t.record_act(RowId(9));
        assert_eq!(t.promotions(), 1);
        // Counting continues past the 2-bit range in the long entry.
        for i in 5..=20 {
            assert_eq!(
                t.record_act(RowId(9)),
                RecordOutcome::Counted { act_cnt: i }
            );
        }
    }

    #[test]
    fn fresh_entries_spill_into_long_when_short_full() {
        let mut t = SoaSplit::new(2, 4, 4, 256);
        for r in 0..4 {
            assert!(matches!(
                t.record_act(RowId(r)),
                RecordOutcome::Counted { act_cnt: 1 }
            ));
        }
        assert_eq!(t.spills(), 2);
        assert_eq!(t.occupancy(), 4);
    }

    #[test]
    fn promotion_swaps_with_spilled_entry_when_long_full() {
        let mut t = SoaSplit::new(2, 2, 4, 256);
        // Fill short, then long with spilled fresh entries.
        for r in 0..4 {
            t.record_act(RowId(r));
        }
        // Promote row 0: it must swap with a spilled long entry.
        for _ in 0..3 {
            t.record_act(RowId(0));
        }
        assert_eq!(t.promotions(), 1);
        assert_eq!(t.get(RowId(0)).unwrap().act_cnt, 4);
        // All four rows still tracked.
        assert_eq!(t.occupancy(), 4);
        for r in 0..4 {
            assert!(t.get(RowId(r)).is_some(), "row {r} lost in swap");
        }
    }

    #[test]
    fn prune_clears_sub_thpi_entries_and_ages_survivors() {
        let mut t = SoaSplit::new(4, 4, 4, 256);
        t.record_act(RowId(1)); // 1 act: pruned
        for _ in 0..4 {
            t.record_act(RowId(2)); // promoted at 4
        }
        t.prune(4);
        assert_eq!(t.get(RowId(1)), None);
        let e = t.get(RowId(2)).unwrap();
        assert_eq!((e.act_cnt, e.life), (4, 2));
    }

    #[test]
    fn short_survivor_moving_to_long_is_aged_once() {
        // Row 0 takes the only long slot; row 1's promotion then fails
        // (no spilled entry to swap with), leaving it short at thPI.
        let mut t = SoaSplit::new(1, 1, 4, 256);
        for _ in 0..4 {
            t.record_act(RowId(0));
        }
        for _ in 0..3 {
            t.record_act(RowId(1));
        }
        assert_eq!(t.record_act(RowId(1)), RecordOutcome::TableFull);
        // A long slot frees; the next prune moves row 1 into it. Its
        // count 4 >= thPI × 1 survives the prune, which ages it once.
        t.remove(RowId(0));
        t.prune(4);
        let e = t.get(RowId(1)).expect("a survivor stays tracked");
        assert_eq!((e.act_cnt, e.life), (4, 2));
        assert_eq!(t.promotions(), 1);
    }
}
