//! Inputs, roles, output checks and the run outcome shared by every
//! workload.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use tclose_core::{verify_k_anonymity, verify_t_closeness, Confidential};
use tclose_datasets::{census_mcd, pii_patients};
use tclose_microdata::csv::{read_csv_auto, write_csv};
use tclose_microdata::{AttributeRole, Table};

use crate::catalog::{K, KFIRST, STREAM, T};

/// Rows of the stream workload's input.
pub const STREAM_ROWS: usize = 50_000;

/// Converts any displayable error into the benchmark's `String` error.
pub trait OrMsg<T> {
    fn msg(self, what: &str) -> Result<T, String>;
}

impl<T, E: Display> OrMsg<T> for Result<T, E> {
    fn msg(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Column roles of one data set.
pub struct Roles {
    pub qi: &'static [&'static str],
    pub conf: &'static [&'static str],
}

pub const PATIENT_ROLES: Roles = Roles {
    qi: &[
        "AGE",
        "ZIP",
        "ADMISSION_DAY",
        "SEX",
        "STAY_DAYS",
        "SEVERITY",
        "PAYER",
    ],
    conf: &["CHARGE"],
};
pub const PII_ROLES: Roles = Roles {
    qi: &["AGE", "ZIP", "STAY_DAYS"],
    conf: &["CHARGE"],
};
pub const CENSUS_ROLES: Roles = Roles {
    qi: &["TAXINC", "POTHVAL"],
    conf: &["FEDTAX"],
};

impl Roles {
    pub fn qi_owned(&self) -> Vec<String> {
        self.qi.iter().map(|s| s.to_string()).collect()
    }

    pub fn conf_owned(&self) -> Vec<String> {
        self.conf.iter().map(|s| s.to_string()).collect()
    }

    pub fn apply(&self, table: &mut Table) -> Result<(), String> {
        let mut roles: Vec<(&str, AttributeRole)> = Vec::new();
        for name in self.qi {
            roles.push((name, AttributeRole::QuasiIdentifier));
        }
        for name in self.conf {
            roles.push((name, AttributeRole::Confidential));
        }
        table.schema_mut().set_roles(&roles).msg("set roles")
    }
}

/// The per-run scratch directory inside the checkout.
pub struct WorkDir {
    pub dir: PathBuf,
}

impl WorkDir {
    /// `.bench_build/tcbench-run/<pid>` under the current directory.
    pub fn create() -> Result<WorkDir, String> {
        let dir = Path::new(".bench_build")
            .join("tcbench-run")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).msg("create work dir")?;
        Ok(WorkDir { dir })
    }

    /// Input data set `i` (see [`n_inputs`]).
    pub fn input(&self, i: usize) -> PathBuf {
        self.dir.join(format!("input-{i}.csv"))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    pub fn registry(&self) -> PathBuf {
        self.dir.join("registry")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Number of seeded input data sets a run of `workload` cycles through.
/// Alg. 2's refinement work and utility vary with the data, so
/// `kfirst-census-mcd` spreads its operations over sixteen census data
/// sets to keep one seed's draw from deciding the run; stream uses one.
pub fn n_inputs(workload: &str) -> usize {
    if workload == KFIRST {
        16
    } else {
        1
    }
}

/// Seed of input data set `i`: the run's seed itself for the first one.
fn input_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64)
    }
}

/// Writes the workload's seeded inputs into `dir`. Runs in a child process
/// (see [`generate_in_child`]) so that generation never shows in the
/// measuring process's peak memory.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    for i in 0..n_inputs(workload) {
        let s = input_seed(seed, i);
        let t = match workload {
            STREAM => pii_patients(s, STREAM_ROWS),
            KFIRST => census_mcd(s),
            other => return Err(format!("unknown workload {other:?}")),
        };
        save(&t, &dir.join(format!("input-{i}.csv")))?;
    }
    Ok(())
}

/// Re-executes this binary as `tcbench gen …` and waits for it.
pub fn generate_in_child(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().msg("locate benchmark binary")?;
    let status = Command::new(exe)
        .arg("gen")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .arg("--dir")
        .arg(dir)
        .status()
        .msg("spawn input generator")?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    Ok(())
}

pub fn save(table: &Table, path: &Path) -> Result<(), String> {
    let file = File::create(path).msg("create output")?;
    write_csv(table, BufWriter::new(file)).msg("write csv")
}

pub fn load_with_roles(path: &Path, roles: &Roles) -> Result<Table, String> {
    let file = File::open(path).msg("open input")?;
    let mut table = read_csv_auto(BufReader::new(file)).msg("read csv")?;
    roles.apply(&mut table)?;
    Ok(table)
}

/// Exact byte comparison of two files through fixed-size buffers (no
/// whole-file allocation, so checks do not inflate peak memory).
pub fn same_bytes(a: &Path, b: &Path) -> Result<bool, String> {
    let (fa, fb) = (File::open(a).msg("open a")?, File::open(b).msg("open b")?);
    if fa.metadata().msg("stat")?.len() != fb.metadata().msg("stat")?.len() {
        return Ok(false);
    }
    let (mut ra, mut rb) = (
        BufReader::with_capacity(1 << 16, fa),
        BufReader::with_capacity(1 << 16, fb),
    );
    let (mut ba, mut bb) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    loop {
        let n = read_full(&mut ra, &mut ba)?;
        let m = read_full(&mut rb, &mut bb)?;
        if n != m || ba[..n] != bb[..m] {
            return Ok(false);
        }
        if n == 0 {
            return Ok(true);
        }
    }
}

fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, String> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]).msg("read")? {
            0 => break,
            n => got += n,
        }
    }
    Ok(got)
}

/// Independent audit of a released table: exactly `rows` rows, achieved
/// k ≥ [`K`] and achieved t ≤ [`T`] against `conf` (bound to the release's
/// rows). Returns a description of the first violation.
pub fn audit_release(released: &Table, conf: &Confidential, rows: usize) -> Result<(), String> {
    if released.n_rows() != rows {
        return Err(format!(
            "release has {} rows, expected {rows}",
            released.n_rows()
        ));
    }
    let k = verify_k_anonymity(released).msg("verify k")?;
    if k < K {
        return Err(format!("achieved k {k} < {K}"));
    }
    let t = verify_t_closeness(released, conf).msg("verify t")?;
    if t > T + 1e-9 {
        return Err(format!("achieved t {t} > {T}"));
    }
    Ok(())
}

/// Audits a released CSV file against its own global distribution (the
/// release keeps every confidential value, so this is the input's).
pub fn audit_release_file(path: &Path, roles: &Roles, rows: usize) -> Result<Table, String> {
    let released = load_with_roles(path, roles)?;
    let conf = Confidential::from_table(&released).msg("confidential model")?;
    audit_release(&released, &conf, rows)?;
    Ok(released)
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Set when an output check fails.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        let p = p.into();
        eprintln!("tcbench: check failed: {p}");
        self.problems.push(p);
    }
}

/// Groups, and the wall time each group builds for, timed for `setup_s`.
const SETUP_GROUPS: usize = 15;
const SETUP_GROUP: Duration = Duration::from_millis(100);

/// One `setup_s` group: `setup` builds back to back for `SETUP_GROUP`,
/// each build timed alone; returns the fastest build in seconds. A build
/// takes microseconds, mostly in system calls, and on a shared machine
/// its typical cost switches between a fast and a slow mode that can
/// last seconds, so a group's mean or median measures the machine's
/// mode; its fastest build still grows with the work a build does.
fn setup_group<S>(setup: &mut impl FnMut() -> Result<S, String>) -> Result<f64, String> {
    let started = Instant::now();
    let mut fastest = f64::INFINITY;
    while fastest.is_infinite() || started.elapsed() < SETUP_GROUP {
        let t0 = Instant::now();
        std::hint::black_box(setup()?);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    Ok(fastest)
}

/// What a closed loop measured.
pub struct Timed {
    /// Wall time of each operation, ms.
    pub walls: Vec<f64>,
    /// Median over `SETUP_GROUPS` groups of [`setup_group`].
    pub setup_s: f64,
}

/// Runs `op` back to back until `budget` has elapsed (and at least
/// `min_ops` times), timing each call. Between operations it times the
/// `setup_s` groups of `setup`, spread evenly over the budget so that a
/// slow spell of the machine lasting a few seconds lifts only some of
/// them. A failed operation is counted in `out`; a failed set-up ends the
/// run.
pub fn closed_loop<S>(
    budget: Duration,
    min_ops: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(usize) -> Result<(), String>,
    out: &mut Outcome,
) -> Result<Timed, String> {
    let started = Instant::now();
    let (mut walls, mut groups) = (Vec::new(), Vec::with_capacity(SETUP_GROUPS));
    let due = |groups: usize| budget.mul_f64(groups as f64 / SETUP_GROUPS as f64);
    let mut i = 0;
    while walls.len() < min_ops || started.elapsed() < budget {
        while groups.len() < SETUP_GROUPS && started.elapsed() >= due(groups.len()) {
            groups.push(setup_group(&mut setup)?);
        }
        let t0 = Instant::now();
        let r = op(i);
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if let Err(e) = r {
            out.failed += 1;
            out.problem(format!("operation {i}: {e}"));
        }
        i += 1;
    }
    while groups.len() < SETUP_GROUPS {
        groups.push(setup_group(&mut setup)?);
    }
    Ok(Timed {
        walls,
        setup_s: crate::stats::median(&groups),
    })
}
