//! Knob hygiene, host facts, and the per-checkout run records that let one
//! run compare itself with earlier runs.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::stats::Fnv;

/// Environment knobs that silently change the measured program.
pub const FORBIDDEN_KNOBS: [&str; 3] = [
    "ESTI_CHIP_THREADS",
    "ESTI_KV_PAGE_SIZE",
    "ESTI_DISABLE_SIMD",
];

/// Directory (relative to the checkout root) for spans and run records.
pub const OUT_DIR: &str = ".bench_out";

/// The forbidden knobs that are set in `env`.
#[must_use]
pub fn knobs_set(env: impl Fn(&str) -> Option<String>) -> Vec<&'static str> {
    FORBIDDEN_KNOBS
        .into_iter()
        .filter(|k| env(k).is_some())
        .collect()
}

/// Facts about the host and build recorded with every run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Whether the CPU reports AVX2.
    pub avx2: bool,
    /// Whether the GEMMs actually run the AVX2 tier.
    pub simd_active: bool,
    /// The git commit when run inside a clone, else a digest of the
    /// program's sources.
    pub commit: String,
}

impl HostFacts {
    /// Probes the host; `root` is the checkout root.
    #[must_use]
    pub fn probe(root: &Path) -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            avx2: avx2(),
            simd_active: esti_tensor::ops::simd_active(),
            commit: git_head(root).unwrap_or_else(|| format!("src-{:016x}", source_digest(root))),
        }
    }
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// FNV digest of every `.rs` and `Cargo.toml` file under `crates/` and
/// `perfbench/`, in sorted path order: identifies the measured source in a
/// checkout that is not a git repository.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        h.bytes(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

/// Run records kept under [`OUT_DIR`] in the checkout. Every key is
/// prefixed with the commit, so a checkout that runs several commits only
/// compares runs of the same code.
pub struct Records {
    dir: PathBuf,
    commit: String,
}

impl Records {
    /// The records of `commit` in the checkout at `root`.
    #[must_use]
    pub fn new(root: &Path, commit: &str) -> Records {
        Records {
            dir: root.join(OUT_DIR),
            commit: commit.to_owned(),
        }
    }

    fn lines(&self, name: &str) -> Vec<String> {
        std::fs::read_to_string(self.dir.join(name))
            .map(|t| t.lines().map(str::to_owned).collect())
            .unwrap_or_default()
    }

    fn full_key(&self, key: &str) -> String {
        format!("{}/{key}", self.commit)
    }

    /// The value stored under `key` in the record file `name`, which holds
    /// one `key value` line per key.
    #[must_use]
    pub fn recall(&self, name: &str, key: &str) -> Option<String> {
        let key = self.full_key(key);
        self.lines(name).into_iter().find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == key).then(|| v.to_owned())
        })
    }

    /// Returns the value an earlier run stored under `key` in the record
    /// file `name`, and stores `value` there if none was stored.
    ///
    /// # Errors
    ///
    /// Fails if the record file cannot be written.
    pub fn remember(&self, name: &str, key: &str, value: &str) -> std::io::Result<Option<String>> {
        if let Some(prior) = self.recall(name, key) {
            return Ok(Some(prior));
        }
        std::fs::create_dir_all(&self.dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(name))?;
        writeln!(f, "{} {value}", self.full_key(key))?;
        Ok(None)
    }

    /// Stores `value` under `key` in the record file `name`, replacing any
    /// earlier value.
    ///
    /// # Errors
    ///
    /// Fails if the record file cannot be written.
    pub fn store(&self, name: &str, key: &str, value: &str) -> std::io::Result<()> {
        let full = self.full_key(key);
        let mut lines: Vec<String> = self
            .lines(name)
            .into_iter()
            .filter(|l| l.split_once(' ').is_none_or(|(k, _)| k != full))
            .collect();
        lines.push(format!("{full} {value}"));
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(self.dir.join(name), lines.join("\n") + "\n")
    }
}
