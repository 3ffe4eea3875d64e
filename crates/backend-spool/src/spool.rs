//! The spool-directory backend: HITs out as JSON files, answers back as
//! JSON files, wall-clock time in between.

use crate::json::{self, Value};
use crowdjoin_sim::{
    BackendFactory, CrowdBackend, PlatformConfig, PlatformStats, ResolvedTask, ShardContext,
    SimDuration, TaskSpec, TimeSource, VirtualTime, WallClock,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide uniquifier folded into each backend's run nonce.
static INSTANCE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A nonce unique across processes and across backend instances within a
/// process, so HIT names from different runs (e.g. a crashed job and its
/// resume) sharing one spool directory can never collide — a stale
/// `answers/` file must never be taken as the answer to a *new* HIT that
/// happens to reuse the name.
fn run_nonce() -> String {
    let millis = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    // Separators matter: concatenated hex would be ambiguous across
    // (pid, counter) boundaries and could collide between processes.
    format!(
        "{millis:x}.{:x}.{:x}",
        std::process::id(),
        INSTANCE_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Consecutive failed parses of one answer file before the backend
/// declares it malformed and fails stop (a partially-written file from a
/// non-atomic answerer looks malformed briefly; a genuinely bad file looks
/// malformed forever).
const MALFORMED_POLL_LIMIT: u32 = 200;

/// Tunables of the spool backend.
#[derive(Debug, Clone)]
pub struct SpoolConfig {
    /// Spool root. HITs appear under `<dir>/hits/`, answers are read from
    /// `<dir>/answers/`.
    pub dir: PathBuf,
    /// How long the event loop waits between polls of the answers
    /// directory while HITs are outstanding.
    pub poll_interval: SimDuration,
}

impl SpoolConfig {
    /// Default configuration over `dir`: 25 ms poll interval.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), poll_interval: SimDuration(25) }
    }
}

/// One published, not-yet-answered HIT.
#[derive(Debug)]
struct PendingHit {
    name: String,
    tasks: Vec<TaskSpec>,
    /// Polls that found this HIT's answer file present but unparsable.
    malformed_polls: u32,
}

/// A [`CrowdBackend`] that publishes HITs as JSON files into a spool
/// directory and polls an answers directory — the engine's first backend
/// whose answers come from *outside the process*: another program, a
/// shell script, or a human with a text editor.
///
/// ## File protocol
///
/// Publishing a HIT atomically creates `<dir>/hits/<name>.json`, where
/// `<name>` is `h-<shard>-<seq>-<nonce>` (shard index, sequence
/// number, and a run nonce that keeps names from a crashed run and its
/// resume — or any two runs sharing the directory — from ever colliding):
///
/// ```json
/// {"hit": "h-3-0-18f2ab11",
///  "shard": 3,
///  "tasks": [{"id": 4294967298, "a": 1, "b": 2, "truth": true, "priority": 0.95}]}
/// ```
///
/// `a`/`b` are the global record indices of the pair in question (decoded
/// from the id, which packs `(a << 32) | b`); `truth` is the machine's
/// expected answer (scripted answerers echo it; humans should ignore it).
/// The answerer replies by creating `<dir>/answers/<name>.json` — the
/// same file name, in the sibling directory:
///
/// ```json
/// {"answers": [{"id": 4294967298, "matching": true, "yes": 3, "no": 0}]}
/// ```
///
/// `yes`/`no` vote counts are optional (default 1/0 per the `matching`
/// verdict). Every task of the HIT must be answered. **Write atomically**
/// (write to a temp name, then rename into `answers/`): the backend
/// tolerates a briefly half-written file by retrying, but fails stop if a
/// file stays unparsable for 200 consecutive polls.
///
/// Consumed answer files are left in place; the backend tracks
/// consumption in memory, so a spool directory is also a human-readable
/// record of the job. Money is accounted as one assignment per answered
/// HIT at the configured price.
#[derive(Debug)]
pub struct SpoolBackend {
    hits_dir: PathBuf,
    answers_dir: PathBuf,
    shard: usize,
    /// Unique-per-instance component of this backend's HIT names.
    nonce: String,
    clock: Arc<WallClock>,
    batch_size: usize,
    price_cents: u32,
    poll_interval: SimDuration,
    next_seq: u64,
    pending: Vec<PendingHit>,
    resolved: VecDeque<(VirtualTime, Vec<ResolvedTask>)>,
    stats: PlatformStats,
}

impl SpoolBackend {
    /// One backend instance for shard `shard` (usually built
    /// via [`SpoolFactory`]). `cfg` supplies the knobs that apply to an
    /// external crowd: `batch_size` (pairs per HIT file) and
    /// `price_per_assignment_cents`; the simulated-worker fields are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if the spool subdirectories cannot be created — a spool
    /// backend without its directories can never make progress.
    #[must_use]
    pub fn new(
        spool: &SpoolConfig,
        cfg: &PlatformConfig,
        shard: usize,
        clock: Arc<WallClock>,
    ) -> Self {
        let hits_dir = spool.dir.join("hits");
        let answers_dir = spool.dir.join("answers");
        for dir in [&hits_dir, &answers_dir] {
            fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create spool directory {}: {e}", dir.display()));
        }
        Self {
            hits_dir,
            answers_dir,
            shard,
            nonce: run_nonce(),
            clock,
            batch_size: cfg.batch_size,
            price_cents: cfg.price_per_assignment_cents,
            poll_interval: spool.poll_interval,
            next_seq: 0,
            pending: Vec::new(),
            resolved: VecDeque::new(),
            stats: PlatformStats::default(),
        }
    }

    /// Renders one HIT file's JSON.
    fn hit_json(&self, name: &str, tasks: &[TaskSpec]) -> String {
        let mut out = String::with_capacity(64 + tasks.len() * 80);
        out.push_str("{\"hit\": ");
        json::write_str(&mut out, name);
        let _ = write!(out, ", \"shard\": {}, \"tasks\": [", self.shard);
        for (i, t) in tasks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let (a, b) = (t.id >> 32, t.id & u64::from(u32::MAX));
            let _ = write!(
                out,
                "{{\"id\": {}, \"a\": {a}, \"b\": {b}, \"truth\": {}, \"priority\": {}}}",
                t.id, t.truth, t.priority
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Scans the answers directory and moves every ready HIT's resolutions
    /// into the resolved queue, in publish order. Returns how many HITs
    /// resolved.
    fn consume_ready(&mut self) -> usize {
        // Wall-clock span: the real filesystem latency of one answers scan.
        let mut span = crowdjoin_obs::obs_span!(
            "backend",
            "spool.scan",
            self.shard as u32,
            pending = self.pending.len(),
        );
        let mut consumed = 0;
        let mut i = 0;
        while i < self.pending.len() {
            let path = self.answers_dir.join(format!("{}.json", self.pending[i].name));
            let text = match fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    i += 1;
                    continue;
                }
                Err(e) => panic!("cannot read answer file {}: {e}", path.display()),
            };
            match parse_answers(&text, &self.pending[i].tasks) {
                Ok(resolved) => {
                    let hit = self.pending.remove(i);
                    let now = self.clock.now();
                    self.stats.assignments_completed += 1;
                    self.stats.total_cost_cents += u64::from(self.price_cents);
                    self.stats.last_resolution = now;
                    consumed += 1;
                    drop(hit);
                    self.resolved.push_back((now, resolved));
                }
                Err(reason) => {
                    self.pending[i].malformed_polls += 1;
                    assert!(
                        self.pending[i].malformed_polls < MALFORMED_POLL_LIMIT,
                        "answer file {} stayed malformed for {MALFORMED_POLL_LIMIT} polls \
                         ({reason}); answerers must write complete JSON atomically \
                         (write to a temp file, then rename into answers/)",
                        path.display()
                    );
                    i += 1;
                }
            }
        }
        span.set_field("resolved_hits", consumed);
        consumed
    }
}

/// Decodes an answers file against the HIT's task list: every task must be
/// answered exactly once, unknown ids are rejected.
fn parse_answers(text: &str, tasks: &[TaskSpec]) -> Result<Vec<ResolvedTask>, String> {
    let doc = json::parse(text)?;
    let answers = doc
        .get("answers")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing \"answers\" array".to_string())?;
    let mut by_id: crowdjoin_util::FxHashMap<u64, ResolvedTask> =
        crowdjoin_util::FxHashMap::default();
    for a in answers {
        let id = a.get("id").and_then(Value::as_u64).ok_or("answer without numeric \"id\"")?;
        let matching =
            a.get("matching").and_then(Value::as_bool).ok_or("answer without \"matching\"")?;
        let default_votes = if matching { (1, 0) } else { (0, 1) };
        let yes = a.get("yes").and_then(Value::as_u64).map_or(default_votes.0, |v| v as u32);
        let no = a.get("no").and_then(Value::as_u64).map_or(default_votes.1, |v| v as u32);
        // A verdict contradicting its own majority would journal a
        // self-contradictory durable record; refuse at the boundary. A
        // tie is legal — the verdict field breaks it.
        if (matching && no > yes) || (!matching && yes > no) {
            return Err(format!(
                "answer for task id {id} says matching={matching} but votes are {yes} yes / \
                 {no} no"
            ));
        }
        if tasks.iter().all(|t| t.id != id) {
            return Err(format!("answer for unknown task id {id}"));
        }
        if by_id
            .insert(id, ResolvedTask { id, label: matching, yes_votes: yes, no_votes: no })
            .is_some()
        {
            return Err(format!("duplicate answer for task id {id}"));
        }
    }
    // Resolutions in the HIT's task order, every task covered.
    tasks
        .iter()
        .map(|t| by_id.get(&t.id).copied().ok_or_else(|| format!("task id {} unanswered", t.id)))
        .collect()
}

impl CrowdBackend for SpoolBackend {
    fn post_hits(&mut self, tasks: Vec<TaskSpec>) {
        if tasks.is_empty() {
            return;
        }
        // Wall-clock span: the tmp-write + rename latency of publishing.
        let _span = crowdjoin_obs::obs_span!(
            "backend",
            "spool.write",
            self.shard as u32,
            pairs = tasks.len(),
            hits = tasks.len().div_ceil(self.batch_size),
        );
        self.stats.pairs_published += tasks.len();
        for chunk in tasks.chunks(self.batch_size) {
            let name = format!("h-{}-{}-{}", self.shard, self.next_seq, self.nonce);
            self.next_seq += 1;
            let body = self.hit_json(&name, chunk);
            // Atomic appear: a reader never sees a half-written HIT file.
            let tmp = self.hits_dir.join(format!(".{name}.tmp"));
            let path = self.hits_dir.join(format!("{name}.json"));
            fs::write(&tmp, body)
                .and_then(|()| fs::rename(&tmp, &path))
                .unwrap_or_else(|e| panic!("cannot publish HIT {}: {e}", path.display()));
            self.stats.hits_published += 1;
            self.stats.pair_slots += self.batch_size;
            self.pending.push(PendingHit { name, tasks: chunk.to_vec(), malformed_polls: 0 });
        }
    }

    fn poll_completions(
        &mut self,
        _until: VirtualTime,
    ) -> Option<(VirtualTime, Vec<ResolvedTask>)> {
        if self.resolved.is_empty() {
            self.consume_ready();
        }
        self.resolved.pop_front()
    }

    fn next_event_time(&self) -> Option<VirtualTime> {
        if !self.resolved.is_empty() {
            return Some(self.clock.now());
        }
        if self.pending.is_empty() {
            return None;
        }
        Some(self.clock.now().after(self.poll_interval))
    }

    fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    fn num_unresolved_pairs(&self) -> usize {
        self.pending.iter().map(|h| h.tasks.len()).sum::<usize>()
            + self.resolved.iter().map(|(_, r)| r.len()).sum::<usize>()
    }

    fn batch_size(&self) -> usize {
        self.batch_size
    }

    fn stats(&self) -> PlatformStats {
        self.stats
    }

    fn warp_to(&mut self, _t: VirtualTime) {
        // Wall-clock time cannot warp; every backend already shares the
        // job's WallClock.
    }

    fn absorb_replayed_cost(&mut self, cents: u64) {
        self.stats.total_cost_cents += cents;
    }
}

/// Creates the per-shard [`SpoolBackend`]s of a run: one shared spool
/// directory, one shared [`WallClock`] epoch, feed-mode journal replay.
#[derive(Debug)]
pub struct SpoolFactory {
    config: SpoolConfig,
    clock: Arc<WallClock>,
}

impl SpoolFactory {
    /// A factory over `config`, creating the `hits/` and `answers/`
    /// subdirectories up front so external answerers can start watching
    /// before the first HIT — and retracting any unanswered HIT files a
    /// previous run left behind ([`retract_unanswered_hits`]), so the
    /// crowd is never asked a question nobody will collect. A spool
    /// directory therefore serves **one live job at a time**.
    ///
    /// # Errors
    ///
    /// I/O errors creating the spool directories or retracting stale
    /// HITs.
    pub fn new(config: SpoolConfig) -> io::Result<Self> {
        fs::create_dir_all(config.dir.join("hits"))?;
        fs::create_dir_all(config.dir.join("answers"))?;
        retract_unanswered_hits(&config.dir)?;
        Ok(Self { config, clock: Arc::new(WallClock::new()) })
    }

    /// The spool root this factory publishes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

impl BackendFactory for SpoolFactory {
    type Backend = SpoolBackend;

    fn create(&self, cfg: &PlatformConfig, shard: &ShardContext) -> SpoolBackend {
        SpoolBackend::new(&self.config, cfg, shard.shard_index, Arc::clone(&self.clock))
    }

    fn time_source(&self) -> &dyn TimeSource {
        self.clock.as_ref()
    }

    fn deterministic_replay(&self) -> bool {
        false
    }
}

/// Retracts every published-but-unanswered HIT file in the spool: renames
/// `hits/<name>.json` to `hits/<name>.json.retracted` (kept for audit;
/// [`pending_hits`] and answerers ignore the suffix). Returns how many
/// HITs were retracted.
///
/// A crashed run's unanswered questions would otherwise sit in `hits/`
/// forever: its resume re-publishes them under fresh names (journaled
/// answers are never re-posted, but unanswered ones must be), and a real
/// crowd would spend money and effort answering both copies.
/// [`SpoolFactory::new`] runs this automatically when a job takes over
/// the directory.
///
/// # Errors
///
/// I/O errors scanning or renaming within the spool.
pub fn retract_unanswered_hits(dir: &Path) -> io::Result<usize> {
    let hits_dir = dir.join("hits");
    let answers_dir = dir.join("answers");
    let mut retracted = 0;
    for entry in fs::read_dir(&hits_dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(".json") {
            if !answers_dir.join(format!("{stem}.json")).exists() {
                fs::rename(hits_dir.join(&name), hits_dir.join(format!("{name}.retracted")))?;
                retracted += 1;
            }
        }
    }
    Ok(retracted)
}

/// One question parsed back from a published HIT file — what an external
/// answerer sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoolQuestion {
    /// Task id to echo back in the answer.
    pub id: u64,
    /// Global index of the first record of the pair.
    pub a: u32,
    /// Global index of the second record of the pair.
    pub b: u32,
    /// The machine's expected answer (scripted answerers echo it).
    pub truth: bool,
    /// Machine likelihood of the pair.
    pub priority: f64,
}

/// Lists the currently **unanswered** HITs of a spool directory, oldest
/// name first: `(hit name, its questions)`. The reference scan loop for
/// external answerers.
///
/// # Errors
///
/// I/O errors reading the spool, or a malformed HIT file (the engine
/// writes them atomically, so that is corruption, not a race).
pub fn pending_hits(dir: &Path) -> io::Result<Vec<(String, Vec<SpoolQuestion>)>> {
    let hits_dir = dir.join("hits");
    let answers_dir = dir.join("answers");
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&hits_dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(stem) = name.strip_suffix(".json") {
            if !answers_dir.join(format!("{stem}.json")).exists() {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let text = fs::read_to_string(hits_dir.join(format!("{name}.json")))?;
        let doc = json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("HIT {name}: {e}")))?;
        let tasks = doc.get("tasks").and_then(Value::as_arr).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("HIT {name}: no tasks"))
        })?;
        let mut questions = Vec::with_capacity(tasks.len());
        for t in tasks {
            let field = |k: &str| {
                t.get(k).and_then(Value::as_u64).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("HIT {name}: bad {k}"))
                })
            };
            questions.push(SpoolQuestion {
                id: field("id")?,
                a: field("a")? as u32,
                b: field("b")? as u32,
                truth: t.get("truth").and_then(Value::as_bool).unwrap_or(false),
                priority: t.get("priority").and_then(Value::as_f64).unwrap_or(0.0),
            });
        }
        out.push((name, questions));
    }
    Ok(out)
}

/// Atomically writes the answers file for `hit`: `(task id, matching)`
/// verdicts with implicit 1/0 votes.
///
/// # Errors
///
/// I/O errors writing into the spool.
pub fn write_answers(dir: &Path, hit: &str, answers: &[(u64, bool)]) -> io::Result<()> {
    let mut body = String::from("{\"answers\": [");
    for (i, (id, matching)) in answers.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(body, "{{\"id\": {id}, \"matching\": {matching}}}");
    }
    body.push_str("]}\n");
    let answers_dir = dir.join("answers");
    let tmp = answers_dir.join(format!(".{hit}.tmp"));
    fs::write(&tmp, body)?;
    fs::rename(&tmp, answers_dir.join(format!("{hit}.json")))
}

/// Scripted answerer: answers every pending HIT with `verdict` and returns
/// how many HITs it answered. Looping this (with a small sleep) until the
/// engine reports completion is a complete external crowd.
///
/// # Errors
///
/// Everything [`pending_hits`] and [`write_answers`] raise.
pub fn answer_pending(
    dir: &Path,
    mut verdict: impl FnMut(&SpoolQuestion) -> bool,
) -> io::Result<usize> {
    let pending = pending_hits(dir)?;
    let count = pending.len();
    for (hit, questions) in pending {
        let answers: Vec<(u64, bool)> = questions.iter().map(|q| (q.id, verdict(q))).collect();
        write_answers(dir, &hit, &answers)?;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_spool(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crowdjoin-spool-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(id: u64, truth: bool) -> TaskSpec {
        TaskSpec { id, truth, priority: 0.5 }
    }

    fn make_backend(dir: &Path) -> SpoolBackend {
        let cfg = PlatformConfig::perfect_workers(1);
        SpoolBackend::new(&SpoolConfig::new(dir), &cfg, 0, Arc::new(WallClock::new()))
    }

    #[test]
    fn publish_poll_answer_roundtrip() {
        let dir = temp_spool("roundtrip");
        let mut backend = make_backend(&dir);
        // 45 tasks at batch size 20 → three HIT files (20+20+5).
        backend.post_hits((0..45).map(|i| spec(i, i % 2 == 0)).collect());
        assert_eq!(backend.stats().hits_published, 3);
        assert_eq!(backend.stats().pair_slots, 60);
        assert_eq!(backend.num_unresolved_pairs(), 45);
        assert!(backend.next_event_time().is_some(), "pending HITs must schedule a poll");

        // Nothing answered yet: polling finds nothing.
        assert!(backend.poll_completions(VirtualTime::MAX).is_none());

        // Answer everything via the reference answerer (echo the truth).
        let answered = answer_pending(&dir, |q| q.truth).expect("answerer");
        assert_eq!(answered, 3);
        assert_eq!(pending_hits(&dir).expect("rescan").len(), 0, "all answered");

        let mut resolved = Vec::new();
        while let Some((t, batch)) = backend.poll_completions(VirtualTime::MAX) {
            assert!(t <= backend.now());
            resolved.extend(batch);
        }
        assert_eq!(resolved.len(), 45);
        for r in &resolved {
            assert_eq!(r.label, r.id % 2 == 0, "echoed truth for task {}", r.id);
            assert_eq!((r.yes_votes + r.no_votes), 1);
        }
        assert_eq!(backend.num_unresolved_pairs(), 0);
        assert_eq!(backend.next_event_time(), None, "drained backend has no events");
        // One assignment per answered HIT at 2¢.
        assert_eq!(backend.stats().assignments_completed, 3);
        assert_eq!(backend.stats().total_cost_cents, 6);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn hit_files_expose_the_global_pair() {
        let dir = temp_spool("pairs");
        let mut backend = make_backend(&dir);
        let id = (7u64 << 32) | 9;
        backend.post_hits(vec![spec(id, true)]);
        let pending = pending_hits(&dir).expect("scan");
        assert_eq!(pending.len(), 1);
        let (_, questions) = &pending[0];
        assert_eq!(questions[0].a, 7);
        assert_eq!(questions[0].b, 9);
        assert_eq!(questions[0].id, id);
        assert!(questions[0].truth);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Name of the only pending HIT in the spool.
    fn only_hit(dir: &Path) -> String {
        let pending = pending_hits(dir).expect("scan");
        assert_eq!(pending.len(), 1);
        pending[0].0.clone()
    }

    #[test]
    fn incomplete_answer_file_is_retried_then_fatal() {
        let dir = temp_spool("malformed");
        let mut backend = make_backend(&dir);
        backend.post_hits(vec![spec(1, true), spec(2, false)]);
        let hit = only_hit(&dir);
        // An answer file missing task 2: retried quietly...
        write_answers(&dir, &hit, &[(1, true)]).expect("write partial");
        for _ in 0..10 {
            assert!(backend.poll_completions(VirtualTime::MAX).is_none());
        }
        // ...until the answerer completes it.
        write_answers(&dir, &hit, &[(1, true), (2, false)]).expect("complete");
        let (_, batch) = backend.poll_completions(VirtualTime::MAX).expect("resolves");
        assert_eq!(batch.len(), 2);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    #[should_panic(expected = "stayed malformed")]
    fn forever_malformed_answer_file_fails_stop() {
        let dir = temp_spool("fatal");
        let mut backend = make_backend(&dir);
        backend.post_hits(vec![spec(1, true)]);
        let hit = only_hit(&dir);
        fs::write(dir.join("answers").join(format!("{hit}.json")), "{not json").expect("garbage");
        for _ in 0..MALFORMED_POLL_LIMIT + 1 {
            let _ = backend.poll_completions(VirtualTime::MAX);
        }
    }

    #[test]
    fn answers_may_carry_explicit_votes() {
        let dir = temp_spool("votes");
        let mut backend = make_backend(&dir);
        backend.post_hits(vec![spec(5, true)]);
        let hit = only_hit(&dir);
        fs::write(
            dir.join("answers").join(format!(".{hit}.tmp")),
            "{\"answers\": [{\"id\": 5, \"matching\": true, \"yes\": 3, \"no\": 1}]}",
        )
        .expect("write");
        fs::rename(
            dir.join("answers").join(format!(".{hit}.tmp")),
            dir.join("answers").join(format!("{hit}.json")),
        )
        .expect("rename");
        let (_, batch) = backend.poll_completions(VirtualTime::MAX).expect("resolves");
        assert_eq!(batch, vec![ResolvedTask { id: 5, label: true, yes_votes: 3, no_votes: 1 }]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn backend_instances_never_collide_on_hit_names() {
        let dir = temp_spool("nonce");
        // Two backends for the *same* shard index (a crashed run and its
        // resume) publishing into one spool: names must stay distinct, and
        // an answer to the first run's HIT must not resolve the second's.
        let mut first = make_backend(&dir);
        first.post_hits(vec![spec(1, true)]);
        let stale = only_hit(&dir);
        let mut second = make_backend(&dir);
        second.post_hits(vec![spec(2, true)]);
        write_answers(&dir, &stale, &[(1, true)]).expect("answer the stale hit");
        for _ in 0..5 {
            assert!(
                second.poll_completions(VirtualTime::MAX).is_none(),
                "a stale answer file must not resolve a new HIT"
            );
        }
        let (_, batch) = first.poll_completions(VirtualTime::MAX).expect("stale hit resolves");
        assert_eq!(batch[0].id, 1);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn contradictory_votes_are_rejected() {
        let tasks = vec![spec(5, true)];
        // Verdict against its own majority: refused at the parse boundary.
        let bad = "{\"answers\": [{\"id\": 5, \"matching\": true, \"yes\": 0, \"no\": 3}]}";
        let err = parse_answers(bad, &tasks).expect_err("must refuse");
        assert!(err.contains("matching=true"), "got {err:?}");
        // A tie is legal; the verdict field breaks it.
        let tie = "{\"answers\": [{\"id\": 5, \"matching\": false, \"yes\": 1, \"no\": 1}]}";
        let resolved = parse_answers(tie, &tasks).expect("tie is legal");
        assert!(!resolved[0].label);
    }

    #[test]
    fn malformed_answer_file_error_names_the_byte_offset() {
        let tasks = vec![spec(5, true)];
        // `+1` is not a JSON number; the error points at the `+`.
        let bad = "{\"answers\": [{\"id\": +5, \"matching\": true}]}";
        let err = parse_answers(bad, &tasks).expect_err("must refuse");
        assert_eq!(err, "unexpected character '+' at byte 20");
        // A raw newline inside a string is a control character, not text.
        let bad = "{\"answers\": [], \"note\": \"two\nlines\"}";
        let err = parse_answers(bad, &tasks).expect_err("must refuse");
        assert_eq!(err, "raw control character in string at byte 28");
    }

    #[test]
    fn factory_retracts_stale_unanswered_hits() {
        let dir = temp_spool("retract");
        // A "crashed run" leaves one answered and one unanswered HIT.
        let mut crashed = make_backend(&dir);
        crashed.post_hits(vec![spec(1, true)]);
        crashed.post_hits(vec![spec(2, true)]);
        let pending = pending_hits(&dir).expect("scan");
        assert_eq!(pending.len(), 2);
        write_answers(&dir, &pending[0].0, &[(1, true)]).expect("answer the first");
        drop(crashed);

        // A new job takes over the spool: the unanswered leftover is
        // retracted so no answerer wastes effort on it.
        let factory = SpoolFactory::new(SpoolConfig::new(&dir)).expect("factory");
        assert_eq!(pending_hits(factory.dir()).expect("rescan").len(), 0);
        let retracted: Vec<String> = fs::read_dir(dir.join("hits"))
            .expect("ls")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".retracted"))
            .collect();
        assert_eq!(retracted.len(), 1, "only the unanswered HIT is retracted");
        assert!(retracted[0].contains(&pending[1].0));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn absorbed_cost_lands_in_the_ledger() {
        let dir = temp_spool("absorb");
        let mut backend = make_backend(&dir);
        backend.absorb_replayed_cost(42);
        assert_eq!(backend.stats().total_cost_cents, 42);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
