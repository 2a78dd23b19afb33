//! One crash-safe spill directory, shared by the checkpoint store and the
//! run-result store.
//!
//! * **Writes** go to a temporary file unique to the writer, `fsync`, then an
//!   atomic rename — an interrupted write never leaves a truncated file under
//!   the final name, and two writers of one name never share a temporary.
//!   A writer killed before its rename leaves that temporary behind; the
//!   first write through each `SpillDir` removes the ones too old to have a
//!   live writer.
//! * **Reads** hand the bytes to the caller's decoder; an entry that fails
//!   validation is deleted and reported as a miss, so the caller falls back
//!   to re-simulation and the next write replaces it whole.
//! * **Warnings** from every degraded operation go to stderr and into a
//!   bounded buffer the owning store drains through its `take_warnings`.

use std::fmt::Display;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, SystemTime};

/// Cap on buffered warnings; beyond it new warnings still reach stderr but
/// are not stored (a degraded spill dir can fail on every sweep).
const MAX_WARNINGS: usize = 64;

/// A temporary file at least this old cannot belong to a live writer (a spill
/// write lasts milliseconds): its writer died between create and rename.
const ORPHAN_AGE: Duration = Duration::from_secs(600);

/// Distinguishes the temporary files of concurrent writers in one process;
/// the process id distinguishes processes.
static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
pub(crate) struct SpillDir {
    /// Names the owning store in stderr warnings.
    owner: &'static str,
    dir: PathBuf,
    warnings: Mutex<Vec<String>>,
    /// Runs the orphan sweep before this directory's first write.
    swept: Once,
}

impl SpillDir {
    /// A spill directory under `dir`, created on first write.
    pub(crate) fn new(owner: &'static str, dir: impl Into<PathBuf>) -> Self {
        SpillDir {
            owner,
            dir: dir.into(),
            warnings: Mutex::new(Vec::new()),
            swept: Once::new(),
        }
    }

    /// Reports a degraded operation: to stderr always, to the buffer while
    /// it has room.
    pub(crate) fn warn(&self, message: String) {
        eprintln!("mtvar {}: {message}", self.owner);
        let mut warnings = self.warnings.lock().expect("spill warnings poisoned");
        if warnings.len() < MAX_WARNINGS {
            warnings.push(message);
        }
    }

    /// Drains the buffered warnings.
    pub(crate) fn take_warnings(&self) -> Vec<String> {
        std::mem::take(&mut *self.warnings.lock().expect("spill warnings poisoned"))
    }

    /// Writes `bytes` under `name`. Best-effort: an I/O failure warns and
    /// leaves the caller on its in-memory copy rather than failing a sweep.
    pub(crate) fn write(&self, name: &str, bytes: &[u8]) {
        self.swept.call_once(|| self.sweep_orphans());
        // Relaxed: only uniqueness matters; the counter publishes no data.
        let writer = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{name}.{}-{writer}.tmp", std::process::id()));
        let published = fs::create_dir_all(&self.dir)
            .and_then(|()| fs::File::create(&tmp))
            .and_then(|mut file| {
                file.write_all(bytes)?;
                file.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, self.dir.join(name)));
        if let Err(e) = published {
            let _ = fs::remove_file(&tmp);
            self.warn(format!("failed to spill {name}: {e}"));
        }
    }

    /// Removes the temporaries of writers that died before their rename:
    /// no later write reuses their unique names, so nothing else would.
    fn sweep_orphans(&self) {
        let now = SystemTime::now();
        let orphaned = |path: &PathBuf| {
            fs::metadata(path)
                .and_then(|meta| meta.modified())
                .is_ok_and(|at| now.duration_since(at).is_ok_and(|age| age >= ORPHAN_AGE))
        };
        let removed = self
            .names()
            .filter(|name| name.ends_with(".tmp"))
            .map(|name| self.dir.join(name))
            .filter(orphaned)
            .filter(|path| fs::remove_file(path).is_ok())
            .count();
        if removed > 0 {
            self.warn(format!(
                "removed {removed} temporary file(s) orphaned by interrupted writes"
            ));
        }
    }

    /// Reads the entry `name` through `decode`. A missing entry is a silent
    /// miss; an unreadable one warns; one that `decode` rejects (truncated,
    /// corrupt, wrong version) is deleted with a warning. All three return
    /// `None`.
    pub(crate) fn read_validated<T, E: Display>(
        &self,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Result<T, E>,
    ) -> Option<T> {
        let path = self.dir.join(name);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                // Present but unreadable (permissions, a directory squatting
                // on the name, I/O error): surface it — silent misses here
                // hide a degraded spill dir that will fail on every sweep.
                self.warn(format!("spill entry {} is unreadable: {e}", path.display()));
                return None;
            }
        };
        match decode(&bytes) {
            Ok(value) => Some(value),
            Err(e) => {
                match fs::remove_file(&path) {
                    Ok(()) => self.warn(format!(
                        "deleted corrupt spill entry {} ({e})",
                        path.display()
                    )),
                    Err(rm) => self.warn(format!(
                        "corrupt spill entry {} ({e}) could not be deleted: {rm}",
                        path.display()
                    )),
                }
                None
            }
        }
    }

    /// The file names currently in the directory (none if it does not exist
    /// yet). A directory scan; for prefix searches and stats, not hot paths.
    pub(crate) fn names(&self) -> impl Iterator<Item = String> {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| entry.file_name().into_string().ok())
    }
}

/// A fresh per-process scratch directory path for one test.
#[cfg(test)]
pub(crate) fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtvar-test-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// Accepts exactly one writer's complete entry: 4 KiB of one byte.
    fn decode_uniform(bytes: &[u8]) -> Result<u8, String> {
        match bytes {
            [tag, rest @ ..] if bytes.len() == 4096 && rest.iter().all(|b| b == tag) => Ok(*tag),
            _ => Err(format!("{} bytes, not one uniform entry", bytes.len())),
        }
    }

    #[test]
    fn warning_buffer_is_bounded_and_drains() {
        let spill = SpillDir::new("test store", temp_dir("spill-warnings"));
        for i in 0..MAX_WARNINGS + 10 {
            spill.warn(format!("warning {i}"));
        }
        assert_eq!(spill.take_warnings().len(), MAX_WARNINGS);
        assert!(spill.take_warnings().is_empty());
    }

    #[test]
    fn first_write_sweeps_orphaned_temporaries_only() {
        let spill = SpillDir::new("test store", temp_dir("spill-orphans"));
        fs::create_dir_all(&spill.dir).unwrap();
        let plant = |name: &str| fs::File::create(spill.dir.join(name)).unwrap();
        plant("x.ckpt.1-0.tmp")
            .set_modified(SystemTime::now() - 2 * ORPHAN_AGE)
            .unwrap();
        // A temporary this young may belong to a writer in another process.
        plant("x.ckpt.1-1.tmp");
        spill.write("y.ckpt", b"entry");
        let mut names: Vec<String> = spill.names().collect();
        names.sort();
        assert_eq!(names, ["x.ckpt.1-1.tmp", "y.ckpt"]);
        let warnings = spill.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("removed 1 temporary"), "{warnings:?}");
        let _ = fs::remove_dir_all(&spill.dir);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "writers race on threads")]
    fn concurrent_writers_of_one_name_never_publish_a_partial_entry() {
        const WRITERS: u8 = 8;
        let spill = SpillDir::new("test store", temp_dir("spill-race"));
        spill.write("shared.bin", &[0u8; 4096]);
        let start = Barrier::new(usize::from(WRITERS) + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (spill, start) = (&spill, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..50).for_each(|_| spill.write("shared.bin", &[w; 4096]));
                    })
                })
                .collect();
            // Every read must see some writer's complete entry: a miss would
            // mean the reader deleted a partial file.
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::SeqCst) {
                    let tag = spill.read_validated("shared.bin", decode_uniform);
                    assert!(tag.expect("entry vanished or failed validation") < WRITERS);
                }
            });
            writers.into_iter().for_each(|w| w.join().expect("writer"));
            done.store(true, Ordering::SeqCst);
        });
        // No temporary left behind, nothing degraded.
        assert_eq!(spill.names().collect::<Vec<_>>(), ["shared.bin"]);
        assert_eq!(spill.take_warnings(), Vec::<String>::new());
        let _ = fs::remove_dir_all(&spill.dir);
    }
}
