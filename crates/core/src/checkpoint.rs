//! Checkpoint/resume for long exploration runs.
//!
//! A checkpoint captures the *learned* state of a run — the parent
//! network's parameters and generation, the optimizer state, the number of
//! cycles completed, and the best design found so far.
//! The search tree and evaluation cache are not captured: every
//! checkpointed batch starts with fresh ones, so a resume needs neither.
//!
//! # On-disk format (v2)
//!
//! ```text
//! RLNOC-CKPT v2 <payload-bytes>\n
//! <payload: the checkpoint as JSON>
//! \nCRC32 <8 hex digits>\n
//! ```
//!
//! The header declares the payload length (so a truncated file is
//! distinguishable from a corrupt one) and the footer carries an IEEE
//! CRC32 of the payload (so any bit flip is detected rather than resumed
//! from). [`ExploreCheckpoint::save`] writes a temp file, `fsync`s it,
//! rotates any existing checkpoint to `<path>.prev`, renames the temp file
//! into place, and best-effort-syncs the parent directory — so at every
//! instant there is at least one intact generation on disk, and
//! [`ExploreCheckpoint::load_with_recovery`] falls back to `.prev` when
//! the primary is torn. A file without the header is
//! [`CheckpointError::Corrupt`].
//!
//! Consumer: [`crate::parallel::explore_parallel_checkpointed`], whose
//! resume replays the uninterrupted run exactly (use one thread for a
//! bit-identical replay).

use crate::explorer::DesignResult;
use crate::policy::PolicyAgent;
use rlnoc_nn::Tensor;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Magic prefix opening every versioned checkpoint header.
const MAGIC: &str = "RLNOC-CKPT";
/// Format version written by [`ExploreCheckpoint::save`].
const VERSION: &str = "v2";
/// Footer: `\nCRC32 ` + 8 hex digits + `\n`.
const FOOTER_LEN: usize = 16;

/// A checkpoint save/load failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint file.
    Io(std::io::Error),
    /// The payload does not parse as a checkpoint.
    Format(serde_json::Error),
    /// The file ends before the length declared in its header: a torn
    /// write. `.prev` recovery applies.
    Truncated {
        /// Bytes the header + footer promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The file is complete but its bytes fail validation (no header, CRC
    /// mismatch, mangled header/footer, non-UTF-8 payload). `.prev` recovery
    /// applies. The detail names what failed, including both CRC values on
    /// a checksum mismatch.
    Corrupt {
        /// Human-readable description of the failed validation.
        detail: String,
    },
    /// The file is a well-formed checkpoint of an unsupported format
    /// version. Deliberate, so no `.prev` fallback: silently resuming an
    /// older generation under a newer format is a foot-gun.
    VersionMismatch {
        /// The version token found in the header.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::Truncated { expected, found } => write!(
                f,
                "checkpoint truncated: expected {expected} bytes, found {found}"
            ),
            CheckpointError::Corrupt { detail } => write!(f, "checkpoint corrupt: {detail}"),
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version mismatch: found `{found}`, this build reads {VERSION}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Format(e)
    }
}

/// Which on-disk generation a recovered load came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSource {
    /// The primary checkpoint file was intact.
    Primary,
    /// The primary was missing or damaged; the rotated `.prev` generation
    /// was used (the run re-executes the cycles since that save, which the
    /// batch-pure replay design makes bit-identical).
    Previous,
}

/// IEEE CRC32 (the zlib/PNG polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The rotated previous-generation path: `<path>.prev`.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".prev");
    PathBuf::from(p)
}

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file location. If the file (or its `.prev` rotation)
    /// exists when a checkpointed run starts, the run resumes from it.
    pub path: PathBuf,
    /// Save every this many completed cycles (clamped to ≥ 1); a final
    /// save always happens at completion.
    pub every: usize,
}

impl CheckpointConfig {
    /// A config saving to `path` every `every` cycles.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointConfig {
            path: path.into(),
            every,
        }
    }
}

/// Optimizer state saved alongside the parameters.
///
/// Adam's moment estimates are not parameters, so a checkpoint holding
/// only [`ExploreCheckpoint::params`] restores the *weights* but restarts
/// bias correction from step zero — every post-resume update then differs
/// from the uninterrupted run's. Capturing this state is what makes
/// resume-after-crash bit-identical to never crashing (asserted by
/// `tests/chaos.rs`). Absent from a checkpoint (early v2 saves), resume
/// falls back to the old fresh-optimizer behavior. Fields that older saves
/// carried beyond these (the retired gradient-norm EWMA) are ignored.
#[derive(Debug, Clone)]
pub struct LearnerState {
    /// Adam step count.
    pub adam_t: u64,
    /// Adam first-moment estimates, one per parameter tensor.
    pub adam_m: Vec<Tensor>,
    /// Adam second-moment estimates, one per parameter tensor.
    pub adam_v: Vec<Tensor>,
}

impl LearnerState {
    /// Captures the agent's optimizer state for saving.
    pub fn capture(agent: &PolicyAgent) -> Self {
        let (adam_t, adam_m, adam_v) = agent.optimizer_snapshot();
        LearnerState {
            adam_t,
            adam_m,
            adam_v,
        }
    }

    /// Restores the captured state into a resumed agent.
    pub fn restore_into(&self, agent: &mut PolicyAgent) {
        agent.restore_optimizer(self.adam_t, self.adam_m.clone(), self.adam_v.clone());
    }
}

impl Serialize for LearnerState {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            (String::from("adam_t"), self.adam_t.serialize()),
            (String::from("adam_m"), self.adam_m.serialize()),
            (String::from("adam_v"), self.adam_v.serialize()),
        ])
    }
}

impl Deserialize for LearnerState {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                SerdeError::custom(format!("missing field `{name}` in LearnerState"))
            })
        };
        Ok(LearnerState {
            adam_t: u64::deserialize(field("adam_t")?)?,
            adam_m: Vec::deserialize(field("adam_m")?)?,
            adam_v: Vec::deserialize(field("adam_v")?)?,
        })
    }
}

/// The durable state of an exploration run.
#[derive(Debug, Clone)]
pub struct ExploreCheckpoint<E> {
    /// Exploration cycles completed across all runs so far.
    pub cycles_done: usize,
    /// The seed of the run (restored runs must pass the same seed).
    pub seed: u64,
    /// Parameter generation matching [`ExploreCheckpoint::params`].
    pub param_generation: u64,
    /// Snapshot of the (parent) network parameters.
    pub params: Vec<rlnoc_nn::Tensor>,
    /// Optimizer state matching [`ExploreCheckpoint::params`].
    /// `None` in legacy checkpoints, where resume restarts the optimizer.
    pub learner: Option<LearnerState>,
    /// Best successful design found so far, across all runs.
    pub best: Option<DesignResult<E>>,
}

// Manual serde impls: the vendored derive does not handle generic types.
impl<E: Serialize> Serialize for ExploreCheckpoint<E> {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            (String::from("cycles_done"), self.cycles_done.serialize()),
            (String::from("seed"), self.seed.serialize()),
            (
                String::from("param_generation"),
                self.param_generation.serialize(),
            ),
            (String::from("params"), self.params.serialize()),
            (String::from("learner"), self.learner.serialize()),
            (String::from("best"), self.best.serialize()),
        ])
    }
}

impl<E: Deserialize> Deserialize for ExploreCheckpoint<E> {
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                SerdeError::custom(format!("missing field `{name}` in ExploreCheckpoint"))
            })
        };
        Ok(ExploreCheckpoint {
            cycles_done: usize::deserialize(field("cycles_done")?)?,
            seed: u64::deserialize(field("seed")?)?,
            param_generation: u64::deserialize(field("param_generation")?)?,
            params: Vec::deserialize(field("params")?)?,
            // Tolerated when absent: legacy checkpoints predate the
            // learner state and resume with a fresh optimizer.
            learner: match value.get("learner") {
                Some(v) => Option::deserialize(v)?,
                None => None,
            },
            best: Option::deserialize(field("best")?)?,
        })
    }
}

/// Frames `payload` in the v2 header/footer.
fn encode_v2(payload: &str) -> Vec<u8> {
    let mut out = format!("{MAGIC} {VERSION} {}\n", payload.len()).into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out.extend_from_slice(format!("\nCRC32 {:08x}\n", crc32(payload.as_bytes())).as_bytes());
    out
}

impl<E: Serialize + Deserialize> ExploreCheckpoint<E> {
    /// Writes the checkpoint durably and atomically: the framed payload
    /// goes to `<path>.tmp` and is `fsync`ed, any existing checkpoint
    /// rotates to `<path>.prev`, the temp file renames over `path`, and
    /// the parent directory is synced (best effort — not every filesystem
    /// supports it). A crash at any point leaves an intact generation.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(self)?;
        let bytes = encode_v2(&json);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        if path.exists() {
            std::fs::rename(path, prev_path(path))?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and validates a checkpoint, distinguishing
    /// [`CheckpointError::Truncated`] (file shorter than its header
    /// declares), [`CheckpointError::Corrupt`] (CRC or framing damage),
    /// and [`CheckpointError::VersionMismatch`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }

    /// Parses checkpoint bytes (the validation half of
    /// [`ExploreCheckpoint::load`], exposed for corruption tests).
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let magic_prefix = format!("{MAGIC} ");
        if !bytes.starts_with(magic_prefix.as_bytes()) {
            return Err(CheckpointError::Corrupt {
                detail: format!("missing `{MAGIC}` header"),
            });
        }
        let header_end =
            bytes
                .iter()
                .position(|&b| b == b'\n')
                .ok_or(CheckpointError::Truncated {
                    expected: bytes.len() + 1,
                    found: bytes.len(),
                })?;
        let header =
            std::str::from_utf8(&bytes[..header_end]).map_err(|_| CheckpointError::Corrupt {
                detail: "header is not UTF-8".into(),
            })?;
        let mut fields = header.split(' ');
        let _magic = fields.next();
        let version = fields.next().unwrap_or("");
        if version != VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: version.to_string(),
            });
        }
        let declared: usize =
            fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CheckpointError::Corrupt {
                    detail: format!("unparseable header `{header}`"),
                })?;
        let body = &bytes[header_end + 1..];
        let expected_total = header_end + 1 + declared + FOOTER_LEN;
        if body.len() < declared + FOOTER_LEN {
            return Err(CheckpointError::Truncated {
                expected: expected_total,
                found: bytes.len(),
            });
        }
        let payload = &body[..declared];
        let footer =
            std::str::from_utf8(&body[declared..]).map_err(|_| CheckpointError::Corrupt {
                detail: "footer is not UTF-8".into(),
            })?;
        let stored = footer
            .strip_prefix("\nCRC32 ")
            .and_then(|rest| rest.strip_suffix('\n'))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| CheckpointError::Corrupt {
                detail: format!("malformed footer `{}`", footer.escape_default()),
            })?;
        let computed = crc32(payload);
        if stored != computed {
            return Err(CheckpointError::Corrupt {
                detail: format!("CRC mismatch: stored {stored:08x}, computed {computed:08x}"),
            });
        }
        let text = std::str::from_utf8(payload).map_err(|_| CheckpointError::Corrupt {
            detail: "payload is not UTF-8 despite matching CRC".into(),
        })?;
        Ok(serde_json::from_str(text)?)
    }

    /// [`ExploreCheckpoint::load`], falling back to the rotated `.prev`
    /// generation when the primary is missing or damaged (torn write,
    /// CRC failure, truncation, unparseable payload). Reports which
    /// generation was used. A [`CheckpointError::VersionMismatch`] never
    /// falls back; if the fallback also fails, the *primary's* error is
    /// returned.
    pub fn load_with_recovery(path: &Path) -> Result<(Self, CheckpointSource), CheckpointError> {
        let primary = match Self::load(path) {
            Ok(cp) => return Ok((cp, CheckpointSource::Primary)),
            Err(e @ CheckpointError::VersionMismatch { .. }) => return Err(e),
            Err(e) => e,
        };
        match Self::load(&prev_path(path)) {
            Ok(cp) => Ok((cp, CheckpointSource::Previous)),
            Err(_) => Err(primary),
        }
    }

    /// Resume helper for checkpointed runs: `Ok(None)` when no generation
    /// exists on disk (fresh start), `Ok(Some(..))` on a successful
    /// (possibly `.prev`-recovered) load, and the typed error when a
    /// checkpoint exists but cannot be trusted.
    pub fn try_resume(path: &Path) -> Result<Option<(Self, CheckpointSource)>, CheckpointError> {
        match Self::load_with_recovery(path) {
            Ok(loaded) => Ok(Some(loaded)),
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routerless::RouterlessEnv;
    use rlnoc_topology::Grid;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rlnoc_ckpt_{}_{name}.json", std::process::id()))
    }

    fn sample(cycles_done: usize) -> ExploreCheckpoint<RouterlessEnv> {
        let env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
        ExploreCheckpoint {
            cycles_done,
            seed: 42,
            param_generation: cycles_done as u64,
            params: vec![rlnoc_nn::Tensor::zeros(&[2, 3])],
            learner: Some(LearnerState {
                adam_t: cycles_done as u64,
                adam_m: vec![Tensor::full(&[2, 3], 0.125)],
                adam_v: vec![Tensor::full(&[2, 3], 0.25)],
            }),
            best: Some(DesignResult {
                env,
                final_return: -1.25,
                cycle: 3,
                steps: 5,
                successful: true,
            }),
        }
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(prev_path(path));
    }

    #[test]
    fn loads_env_payload_with_retired_loop_length_field() {
        use crate::Environment as _;
        // Saved when the env's constraints still carried an optional
        // `max_loop_length` (always `null` in practice); loading ignores it.
        let bytes = include_bytes!("../tests/fixtures/checkpoint_v2_loop_length.ckpt");
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(text.contains(r#""constraints":{"overlap_cap":4,"max_loop_length":null}"#));
        let cp = ExploreCheckpoint::<RouterlessEnv>::decode(bytes).unwrap();
        assert_eq!((cp.cycles_done, cp.seed, cp.param_generation), (7, 42, 7));
        let mut env = cp.best.unwrap().env;
        assert_eq!(env.overlap_cap(), 4);
        assert_eq!(env.topology().loops().len(), 2);
        // The restored design keeps working: greedy still finds a loop.
        let a = env.greedy_action().unwrap();
        assert_eq!(env.apply(a), 0.0);
    }

    #[test]
    fn save_load_roundtrip() {
        let cp = sample(7);
        let path = scratch("roundtrip");
        cleanup(&path);
        cp.save(&path).unwrap();
        let back = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap();
        assert_eq!(back.cycles_done, 7);
        assert_eq!(back.seed, 42);
        assert_eq!(back.param_generation, 7);
        assert_eq!(back.params, cp.params);
        let learner = back.learner.as_ref().expect("learner state round-trips");
        assert_eq!(learner.adam_t, 7);
        assert_eq!(learner.adam_m, cp.learner.as_ref().unwrap().adam_m);
        assert_eq!(learner.adam_v, cp.learner.as_ref().unwrap().adam_v);
        let best = back.best.unwrap();
        assert_eq!(best.final_return, -1.25);
        assert_eq!(best.cycle, 3);
        assert!(best.successful);
        // The temp file is gone after the atomic rename.
        assert!(!path.with_extension("json.tmp").exists());
        cleanup(&path);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = ExploreCheckpoint::<RouterlessEnv>::load(&scratch("missing")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn load_garbage_is_format_error() {
        let path = scratch("garbage");
        std::fs::write(&path, b"not json {").unwrap();
        let err = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }),
            "got {err:?}"
        );
        cleanup(&path);
    }

    #[test]
    fn missing_learner_field_deserializes_as_none() {
        // Early v2 payloads predate the learner field; they must load with
        // `learner: None`, not error.
        let stripped = match sample(5).serialize() {
            Value::Object(fields) => {
                Value::Object(fields.into_iter().filter(|(k, _)| k != "learner").collect())
            }
            other => panic!("checkpoints serialize as objects, got {other:?}"),
        };
        let back = ExploreCheckpoint::<RouterlessEnv>::deserialize(&stripped).unwrap();
        assert_eq!(back.cycles_done, 5);
        assert!(
            back.learner.is_none(),
            "absent field resumes optimizer-fresh"
        );

        // Later payloads carried the retired gradient-norm EWMA in the
        // learner state; the extra fields are ignored.
        let mut learner = sample(5).learner.unwrap().serialize();
        if let Value::Object(fields) = &mut learner {
            fields.push(("sentinel_ewma".into(), 1.5f64.serialize()));
            fields.push(("sentinel_observed".into(), 5u64.serialize()));
        }
        let back = LearnerState::deserialize(&learner).unwrap();
        assert_eq!(back.adam_t, 5);
        assert_eq!(back.adam_m, vec![Tensor::full(&[2, 3], 0.125)]);
    }

    #[test]
    fn legacy_plain_json_is_corrupt() {
        // Bare-JSON v1 files predate the framed format and are no longer
        // read: they fail as corrupt, so `.prev` recovery applies.
        let path = scratch("legacy");
        let json = serde_json::to_string(&sample(5)).unwrap();
        std::fs::write(&path, json).unwrap();
        let err = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }),
            "got {err:?}"
        );
        cleanup(&path);
    }

    #[test]
    fn truncation_is_typed() {
        let path = scratch("truncated");
        cleanup(&path);
        sample(3).save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap_err();
        match err {
            CheckpointError::Truncated { expected, found } => {
                assert_eq!(expected, full.len());
                assert_eq!(found, full.len() / 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn bit_flip_is_corrupt_with_both_crcs() {
        let path = scratch("flipped");
        cleanup(&path);
        sample(3).save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20; // flip a payload bit
        std::fs::write(&path, &bytes).unwrap();
        let err = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap_err();
        match err {
            CheckpointError::Corrupt { detail } => {
                assert!(detail.contains("CRC mismatch"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn future_version_is_mismatch_and_never_recovers() {
        let path = scratch("version");
        cleanup(&path);
        sample(1).save(&path).unwrap(); // leaves a valid primary...
        sample(2).save(&path).unwrap(); // ...rotated to .prev
        let mut bytes = std::fs::read(&path).unwrap();
        let v = format!("{MAGIC} {VERSION}");
        bytes[v.len() - 1] = b'9'; // v2 -> v9
        std::fs::write(&path, &bytes).unwrap();
        let err = ExploreCheckpoint::<RouterlessEnv>::load(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::VersionMismatch { ref found } if found == "v9"));
        // load_with_recovery must surface the mismatch, not fall back.
        let err = ExploreCheckpoint::<RouterlessEnv>::load_with_recovery(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::VersionMismatch { .. }));
        cleanup(&path);
    }

    #[test]
    fn save_rotates_prev_and_recovery_uses_it() {
        let path = scratch("rotate");
        cleanup(&path);
        sample(1).save(&path).unwrap();
        assert!(
            !prev_path(&path).exists(),
            "first save has nothing to rotate"
        );
        sample(2).save(&path).unwrap();
        assert!(prev_path(&path).exists(), "second save rotates the first");

        let (cp, source) = ExploreCheckpoint::<RouterlessEnv>::load_with_recovery(&path).unwrap();
        assert_eq!(cp.cycles_done, 2);
        assert_eq!(source, CheckpointSource::Primary);

        // Tear the primary: recovery serves the rotated generation.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (cp, source) = ExploreCheckpoint::<RouterlessEnv>::load_with_recovery(&path).unwrap();
        assert_eq!(cp.cycles_done, 1);
        assert_eq!(source, CheckpointSource::Previous);

        // Both generations damaged: the primary's typed error surfaces.
        std::fs::write(prev_path(&path), b"\0\0\0").unwrap();
        let err = ExploreCheckpoint::<RouterlessEnv>::load_with_recovery(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }));
        assert!(ExploreCheckpoint::<RouterlessEnv>::try_resume(&path).is_err());
        cleanup(&path);
    }

    #[test]
    fn try_resume_distinguishes_fresh_start() {
        let path = scratch("fresh");
        cleanup(&path);
        assert!(ExploreCheckpoint::<RouterlessEnv>::try_resume(&path)
            .unwrap()
            .is_none());
        sample(4).save(&path).unwrap();
        let (cp, _) = ExploreCheckpoint::<RouterlessEnv>::try_resume(&path)
            .unwrap()
            .expect("saved checkpoint resumes");
        assert_eq!(cp.cycles_done, 4);
        // Primary deleted but .prev present: still resumes.
        sample(5).save(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (cp, source) = ExploreCheckpoint::<RouterlessEnv>::try_resume(&path)
            .unwrap()
            .expect("prev generation resumes");
        assert_eq!(cp.cycles_done, 4);
        assert_eq!(source, CheckpointSource::Previous);
        cleanup(&path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
