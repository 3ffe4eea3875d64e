//! The five workloads, and the set-up that turns a seed into input files.
//!
//! The program under test receives only the generated files; the generator
//! output, the ground truth kept for the simulated crowd and for scoring,
//! and the scratch directory are set-up, not job time.

use crowdjoin::matcher::MatcherConfig;
use crowdjoin::records::{
    generate_paper, generate_product, table_to_csv, table_to_jsonl, Dataset, PaperGenConfig,
    ProductGenConfig, Table,
};
use crowdjoin::sim::PlatformConfig;
use crowdjoin::util::derive_seed;
use crowdjoin::{EngineConfig, GroundTruth};
use std::path::{Path, PathBuf};

/// Records per `StreamJob::ingest` call on the streaming workload.
pub const STREAM_CHUNK: usize = 32;

/// Shards every engine run partitions into.
pub const NUM_SHARDS: usize = 4;

/// What the generator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Abt-Buy stand-in, a cross join of two tables of `per_side` records.
    Product {
        /// Records in each table.
        per_side: usize,
    },
    /// Cora stand-in, a self join of `records` records.
    Paper {
        /// Records in the one table.
        records: usize,
    },
}

/// The simulated crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crowd {
    /// `PlatformConfig::perfect_workers`: the paper's Table 1 setting.
    Perfect,
    /// `PlatformConfig::amt_like` with 120 workers: 25 % spammers,
    /// qualification test, majority vote (Table 2).
    Amt,
}

/// Which path through the program the job takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `join`/`dedup`: staged batch matcher, engine, CSV out.
    Batch,
    /// As `Batch` with `EngineConfig::journal` set; then the journal is cut
    /// at the record boundary nearest half its bytes and `Engine::resume`
    /// finishes the job.
    Journal,
    /// `join --stream`: JSONL in, `StreamJob::ingest` per chunk, `close`,
    /// then the same engine tail.
    Stream,
}

/// One workload: an input shape, a crowd, and a path through the program.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (`BENCHMARK.json`, the README and the output use it).
    pub name: &'static str,
    /// The generator and its size.
    pub input: Input,
    /// Input sets generated (from as many sub-seeds) per run. Jobs take them
    /// in turn, so every reported number is a mean over this many datasets
    /// and moves less from seed to seed than any one dataset does; `setup_s`
    /// is the median of this many set-ups. The Paper generator draws cluster
    /// sizes from a power law and its datasets differ twice as much as the
    /// Product generator's fixed cluster mix, hence at least twice the sets;
    /// as many as still leave every set two measurements in a 20-second run.
    pub sets: usize,
    /// Matcher floor and likelihood threshold (the same number, so every
    /// generated candidate is labeled).
    pub floor: f64,
    /// Who answers.
    pub crowd: Crowd,
    /// Which path the job takes.
    pub mode: Mode,
}

/// The workloads, in the order the suite runs them. `BENCHMARK.json` records
/// why each exists; `README.md` records how each was sized.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "match_40k",
        input: Input::Product { per_side: 20_000 },
        sets: 8,
        floor: 0.5,
        crowd: Crowd::Perfect,
        mode: Mode::Batch,
    },
    Workload {
        name: "crowd_9k",
        input: Input::Product { per_side: 4_500 },
        sets: 8,
        floor: 0.3,
        crowd: Crowd::Perfect,
        mode: Mode::Batch,
    },
    Workload {
        name: "dedup_8k",
        input: Input::Paper { records: 8_000 },
        sets: 20,
        floor: 0.3,
        crowd: Crowd::Amt,
        mode: Mode::Batch,
    },
    Workload {
        name: "journal_8k",
        input: Input::Paper { records: 8_000 },
        sets: 20,
        floor: 0.3,
        crowd: Crowd::Amt,
        mode: Mode::Journal,
    },
    Workload {
        name: "stream_2k",
        input: Input::Paper { records: 2_000 },
        sets: 16,
        floor: 0.3,
        crowd: Crowd::Amt,
        mode: Mode::Stream,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Threads for the matcher and the engine: every core, at most four.
#[must_use]
pub fn threads() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Workload {
    /// Records in one input set.
    #[must_use]
    pub fn num_records(&self) -> usize {
        match self.input {
            Input::Product { per_side } => 2 * per_side,
            Input::Paper { records } => records,
        }
    }

    /// The matcher configuration of the job, for a schema of `arity` fields.
    #[must_use]
    pub fn matcher(&self, arity: usize) -> MatcherConfig {
        let mut cfg = MatcherConfig::for_arity(arity);
        if let Input::Product { .. } = self.input {
            // Names dominate product matching; prices are secondary evidence.
            cfg.field_weights = vec![1.0, 0.25];
        }
        cfg.min_likelihood = self.floor;
        cfg.threads = threads();
        cfg
    }

    /// The simulated platform of the job on input set `set`.
    #[must_use]
    pub fn platform(&self, set: &InputSet) -> PlatformConfig {
        let seed = derive_seed(set.seed, 1);
        match self.crowd {
            Crowd::Perfect => PlatformConfig::perfect_workers(seed),
            Crowd::Amt => PlatformConfig { num_workers: 120, ..PlatformConfig::amt_like(seed) },
        }
    }

    /// The engine configuration of the job on input set `set`.
    #[must_use]
    pub fn engine(&self, set: &InputSet, journal: Option<PathBuf>) -> EngineConfig {
        EngineConfig {
            num_shards: NUM_SHARDS,
            num_threads: threads(),
            seed: derive_seed(set.seed, 2),
            journal,
            ..EngineConfig::default()
        }
    }

    /// Generates input set number `index` of the run seeded `seed` and
    /// writes its files into `dir`.
    ///
    /// # Errors
    ///
    /// A message naming the file that could not be written.
    pub fn set_up(&self, seed: u64, index: usize, dir: &Path) -> Result<InputSet, String> {
        // Not a function of the workload: workloads of one input shape and
        // size (the batch and the journaled self join) get identical inputs,
        // so their numbers differ by the path taken and nothing else.
        let set_seed = derive_seed(seed, index as u64);
        let dataset = match self.input {
            Input::Product { per_side } => generate_product(&ProductGenConfig {
                seed: set_seed,
                ..ProductGenConfig::scaled(per_side)
            }),
            Input::Paper { records } => generate_paper(&PaperGenConfig {
                num_records: records,
                seed: set_seed,
                ..PaperGenConfig::default()
            }),
        };
        let write = |name: String, text: String| -> Result<PathBuf, String> {
            let path = dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            Ok(path)
        };
        let files = match (self.mode, dataset.split) {
            (Mode::Stream, _) => InputFiles::Jsonl(write(
                format!("in{index}.jsonl"),
                table_to_jsonl(&dataset.table),
            )?),
            (_, Some(split)) => {
                let (left, right) = split_table(&dataset, split);
                InputFiles::CsvPair(
                    write(format!("in{index}-left.csv"), table_to_csv(&left))?,
                    write(format!("in{index}-right.csv"), table_to_csv(&right))?,
                )
            }
            (_, None) => {
                InputFiles::Csv(write(format!("in{index}.csv"), table_to_csv(&dataset.table))?)
            }
        };
        Ok(InputSet {
            index,
            seed: set_seed,
            files,
            records: dataset.len(),
            truth: GroundTruth::new(dataset.entity_of),
            output: dir.join(format!("out{index}.csv")),
            journal: dir.join(format!("job{index}.wal")),
        })
    }
}

fn split_table(dataset: &Dataset, split: usize) -> (Table, Table) {
    let mut left = Table::new(dataset.table.schema().clone());
    let mut right = Table::new(dataset.table.schema().clone());
    for (i, record) in dataset.table.records().iter().enumerate() {
        if i < split {
            left.push(record.clone());
        } else {
            right.push(record.clone());
        }
    }
    (left, right)
}

/// The files one job reads.
#[derive(Debug, Clone)]
pub enum InputFiles {
    /// `dedup --input`.
    Csv(PathBuf),
    /// `join --left --right`.
    CsvPair(PathBuf, PathBuf),
    /// `join --stream`.
    Jsonl(PathBuf),
}

/// One generated input: its files, and what the benchmark keeps of the
/// generator's knowledge.
#[derive(Debug, Clone)]
pub struct InputSet {
    /// Position among the run's input sets.
    pub index: usize,
    /// The sub-seed the generator, platform and engine seeds derive from.
    pub seed: u64,
    /// What the job reads.
    pub files: InputFiles,
    /// Records in the files.
    pub records: usize,
    /// Which records are the same entity: the simulated crowd answers from
    /// it and `label_f1` is scored against it.
    pub truth: GroundTruth,
    /// Where the job writes its labeled CSV.
    pub output: PathBuf,
    /// Where a journaled job keeps its write-ahead log.
    pub journal: PathBuf,
}
