//! Binary persistence for trained forests.
//!
//! The paper promises to "open-source the pre-trained models for the
//! research community" (sic); this module makes TEVoT's forests serializable to
//! a small self-describing binary format (magic + version + tree node
//! arrays, all little-endian), independent of any serialization crate.
//!
//! Loading is fully defensive: a truncated or corrupt file produces a
//! typed [`LoadModelError`] naming the byte offset where decoding
//! stopped (and, through the `*_path` functions, the file path), never a
//! panic. The file-based entry points carry the `model.save` /
//! `model.load` failpoints for chaos testing.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::forest::{RandomForestClassifier, RandomForestRegressor};
use crate::tree::{DecisionTree, Task};

const MAGIC: &[u8; 8] = b"TEVOTRF\0";
const VERSION: u32 = 2;

/// An error produced while loading a persisted model.
#[derive(Debug)]
pub enum LoadModelError {
    /// Underlying I/O failure, at the byte offset where reading stopped.
    Io {
        /// Bytes successfully consumed before the failure.
        offset: u64,
        /// The operating-system error.
        source: io::Error,
    },
    /// The data is not a persisted model, or uses an unknown version.
    Format {
        /// Byte offset at which validation failed.
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// A failure attributed to a specific model file.
    AtPath {
        /// The file being loaded.
        path: PathBuf,
        /// The underlying failure.
        source: Box<LoadModelError>,
    },
}

impl LoadModelError {
    /// A [`LoadModelError::Format`] error at `offset`.
    pub fn format(offset: u64, message: impl Into<String>) -> Self {
        LoadModelError::Format { offset, message: message.into() }
    }

    /// Wraps this error with the path of the file it came from.
    pub fn at_path(self, path: impl Into<PathBuf>) -> Self {
        LoadModelError::AtPath { path: path.into(), source: Box::new(self) }
    }

    /// The byte offset the innermost failure occurred at.
    pub fn offset(&self) -> u64 {
        match self {
            LoadModelError::Io { offset, .. } | LoadModelError::Format { offset, .. } => *offset,
            LoadModelError::AtPath { source, .. } => source.offset(),
        }
    }
}

impl std::fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadModelError::Io { offset, source } => {
                write!(f, "i/o error while loading model at byte {offset}: {source}")
            }
            LoadModelError::Format { offset, message } => {
                write!(f, "invalid model data at byte {offset}: {message}")
            }
            LoadModelError::AtPath { path, source } => {
                write!(f, "load model {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadModelError::Io { source, .. } => Some(source),
            LoadModelError::Format { .. } => None,
            LoadModelError::AtPath { source, .. } => Some(source),
        }
    }
}

impl From<io::Error> for LoadModelError {
    /// Classifies a raw I/O error with an unknown offset (0); prefer the
    /// offset-tracking [`ModelReader`] inside this module.
    fn from(e: io::Error) -> Self {
        LoadModelError::Io { offset: 0, source: e }
    }
}

impl From<LoadModelError> for tevot_resil::TevotError {
    fn from(e: LoadModelError) -> Self {
        let kind = match innermost(&e) {
            LoadModelError::Io { .. } => tevot_resil::ErrorKind::Io,
            _ => tevot_resil::ErrorKind::Corrupt,
        };
        // Classification only: the LoadModelError renders the full
        // path/offset story itself, so this layer adds no message.
        tevot_resil::TevotError::new(kind, "").with_source(e)
    }
}

fn innermost(e: &LoadModelError) -> &LoadModelError {
    match e {
        LoadModelError::AtPath { source, .. } => innermost(source),
        other => other,
    }
}

/// A byte-counting reader: every persisted-model read goes through this,
/// so failures can name the exact offset where decoding stopped.
#[derive(Debug)]
pub struct ModelReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> ModelReader<R> {
    /// Wraps `inner`, counting from offset 0.
    pub fn new(inner: R) -> Self {
        ModelReader { inner, offset: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// A format error at the current offset.
    pub fn format_err(&self, message: impl Into<String>) -> LoadModelError {
        LoadModelError::format(self.offset, message)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), LoadModelError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                Err(self.format_err(format!("truncated: needed {} more bytes", buf.len())))
            }
            Err(e) => Err(LoadModelError::Io { offset: self.offset, source: e }),
        }
    }

    fn u32(&mut self) -> Result<u32, LoadModelError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, LoadModelError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, LoadModelError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_trees(
    w: &mut impl Write,
    trees: &[DecisionTree],
    task_tag: u32,
    num_features: usize,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, task_tag)?;
    write_u64(w, num_features as u64)?;
    write_u64(w, trees.len() as u64)?;
    for tree in trees {
        let nodes: Vec<_> = tree.nodes_raw().collect();
        write_u64(w, nodes.len() as u64)?;
        for (feature, value, left, right, gain) in nodes {
            write_u32(w, feature)?;
            write_f64(w, value)?;
            write_u32(w, left)?;
            write_u32(w, right)?;
            write_f64(w, gain)?;
        }
    }
    Ok(())
}

fn read_trees<R: Read>(
    r: &mut ModelReader<R>,
    expect_tag: u32,
) -> Result<(Vec<DecisionTree>, usize), LoadModelError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(LoadModelError::format(0, "bad magic"));
    }
    let at = r.offset();
    let version = r.u32()?;
    if version != VERSION {
        return Err(LoadModelError::format(at, format!("unsupported version {version}")));
    }
    let at = r.offset();
    let tag = r.u32()?;
    if tag != expect_tag {
        return Err(LoadModelError::format(
            at,
            format!("model task tag {tag} does not match expected {expect_tag}"),
        ));
    }
    let num_features = r.u64()? as usize;
    let at = r.offset();
    let num_trees = r.u64()? as usize;
    if num_trees == 0 || num_trees > 1_000_000 {
        return Err(LoadModelError::format(at, format!("implausible tree count {num_trees}")));
    }
    let task = if expect_tag == 0 { Task::Regression } else { Task::Classification };
    let mut trees = Vec::with_capacity(num_trees);
    for _ in 0..num_trees {
        let at = r.offset();
        let num_nodes = r.u64()? as usize;
        if num_nodes == 0 || num_nodes > 100_000_000 {
            return Err(LoadModelError::format(at, format!("implausible node count {num_nodes}")));
        }
        // Capacity grows with the data actually read, not the claimed count.
        let mut nodes = Vec::with_capacity(num_nodes.min(1 << 16));
        let mut has_parent = vec![false; num_nodes.min(1 << 16)];
        for i in 0..num_nodes {
            let at = r.offset();
            let feature = r.u32()?;
            let value = r.f64()?;
            let left = r.u32()?;
            let right = r.u32()?;
            let gain = r.f64()?;
            if feature != u32::MAX {
                if feature as usize >= num_features
                    || left as usize >= num_nodes
                    || right as usize >= num_nodes
                {
                    return Err(LoadModelError::format(at, "node reference out of range"));
                }
                // Children after their parent make every tree acyclic; one
                // parent per node keeps it a tree (no shared subtrees).
                if left as usize <= i || right as usize <= i {
                    return Err(LoadModelError::format(
                        at,
                        format!("node {i} has a child index not after its own"),
                    ));
                }
                for child in [left as usize, right as usize] {
                    if child >= has_parent.len() {
                        has_parent.resize(child + 1, false);
                    }
                    if std::mem::replace(&mut has_parent[child], true) {
                        return Err(LoadModelError::format(
                            at,
                            format!("node {child} has two parents"),
                        ));
                    }
                }
            }
            nodes.push((feature, value, left, right, gain));
        }
        trees.push(DecisionTree::from_raw(&nodes, num_features, task));
    }
    Ok((trees, num_features))
}

/// Serializes a regressor forest to `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_regressor(model: &RandomForestRegressor, mut writer: impl Write) -> io::Result<()> {
    let width = forest_width(model.trees());
    write_trees(&mut writer, model.trees(), 0, width)
}

/// Serializes a classifier forest to `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_classifier(model: &RandomForestClassifier, mut writer: impl Write) -> io::Result<()> {
    let width = forest_width(model.trees());
    write_trees(&mut writer, model.trees(), 1, width)
}

fn forest_width(trees: &[DecisionTree]) -> usize {
    trees.first().map_or(0, DecisionTree::num_features)
}

/// Deserializes a regressor forest from `reader`. Errors name the byte
/// offset where decoding stopped (relative to the start of the forest
/// block).
///
/// # Errors
///
/// Returns [`LoadModelError`] on I/O failure or malformed data.
pub fn load_regressor(reader: impl Read) -> Result<RandomForestRegressor, LoadModelError> {
    let (trees, _) = read_trees(&mut ModelReader::new(reader), 0)?;
    Ok(RandomForestRegressor::from_trees(trees))
}

/// Deserializes a classifier forest from `reader`; see
/// [`load_regressor`].
///
/// # Errors
///
/// Returns [`LoadModelError`] on I/O failure or malformed data.
pub fn load_classifier(reader: impl Read) -> Result<RandomForestClassifier, LoadModelError> {
    let (trees, _) = read_trees(&mut ModelReader::new(reader), 1)?;
    Ok(RandomForestClassifier::from_trees(trees))
}

/// Saves a regressor forest to `path`. Failpoint: `model.save`.
///
/// # Errors
///
/// Propagates I/O errors (including injected ones).
pub fn save_regressor_path(model: &RandomForestRegressor, path: &Path) -> io::Result<()> {
    tevot_resil::fail::eval("model.save")?;
    save_regressor(model, std::fs::File::create(path)?)
}

/// Loads a regressor forest from `path`; errors name both the path and
/// the byte offset. Failpoint: `model.load`.
///
/// # Errors
///
/// Returns [`LoadModelError::AtPath`] wrapping the underlying failure.
pub fn load_regressor_path(path: &Path) -> Result<RandomForestRegressor, LoadModelError> {
    open_model(path)
        .and_then(|f| load_regressor(io::BufReader::new(f)))
        .map_err(|e| e.at_path(path))
}

/// Loads a classifier forest from `path`; see [`load_regressor_path`].
///
/// # Errors
///
/// Returns [`LoadModelError::AtPath`] wrapping the underlying failure.
pub fn load_classifier_path(path: &Path) -> Result<RandomForestClassifier, LoadModelError> {
    open_model(path)
        .and_then(|f| load_classifier(io::BufReader::new(f)))
        .map_err(|e| e.at_path(path))
}

/// Opens a model file, evaluating the `model.load` failpoint first.
///
/// # Errors
///
/// Returns [`LoadModelError::Io`] at offset 0 when the file cannot be
/// opened (or the failpoint injects a failure).
pub fn open_model(path: &Path) -> Result<std::fs::File, LoadModelError> {
    let open = || -> io::Result<std::fs::File> {
        tevot_resil::fail::eval("model.load")?;
        std::fs::File::open(path)
    };
    open().map_err(|e| LoadModelError::Io { offset: 0, source: e })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::ForestParams;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_data() -> Dataset {
        let mut d = Dataset::new(3);
        for i in 0..200 {
            let x = [(i % 7) as f64, (i % 2) as f64, (i % 5) as f64];
            d.push(&x, x[0] * 10.0 + x[1] * 100.0);
        }
        d
    }

    fn sample_regressor() -> RandomForestRegressor {
        let mut rng = SmallRng::seed_from_u64(5);
        RandomForestRegressor::fit(&sample_data(), &ForestParams::default(), &mut rng)
    }

    #[test]
    fn regressor_roundtrip_is_bit_identical() {
        let data = sample_data();
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        let loaded = load_regressor(buf.as_slice()).unwrap();
        for i in 0..data.len() {
            assert_eq!(model.predict(data.row(i)), loaded.predict(data.row(i)));
        }
    }

    #[test]
    fn classifier_roundtrip_is_bit_identical() {
        let data = sample_data().map_labels(|l| (l > 300.0) as u8 as f64);
        let mut rng = SmallRng::seed_from_u64(5);
        let model = RandomForestClassifier::fit(&data, &ForestParams::default(), &mut rng);
        let mut buf = Vec::new();
        save_classifier(&model, &mut buf).unwrap();
        let loaded = load_classifier(buf.as_slice()).unwrap();
        for i in 0..data.len() {
            assert_eq!(model.predict(data.row(i)), loaded.predict(data.row(i)));
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = load_regressor(&b"NOTAMODELxxxxxxxxxxxxxxx"[..]).unwrap_err();
        assert!(matches!(err, LoadModelError::Format { .. }));
    }

    #[test]
    fn rejects_task_mismatch() {
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        let err = load_classifier(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("task tag"));
        assert_eq!(err.offset(), 12, "tag sits after magic + version");
    }

    #[test]
    fn truncation_at_every_offset_names_the_offset() {
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        // Every truncation point: a typed error whose offset never
        // exceeds the cut, never a panic.
        for cut in 0..buf.len() - 1 {
            let err = load_regressor(&buf[..cut]).unwrap_err();
            assert!(
                err.offset() <= cut as u64,
                "cut {cut}: reported offset {} past the data",
                err.offset()
            );
        }
    }

    #[test]
    fn path_loader_names_path_and_offset() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tevot_model_{}.bin", std::process::id()));
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        std::fs::write(&path, &buf).unwrap();
        let err = load_regressor_path(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        assert!(msg.contains("at byte"), "{msg}");
        std::fs::remove_file(&path).unwrap();

        let err = load_regressor_path(Path::new("/nonexistent/model.bin")).unwrap_err();
        assert!(matches!(
            err,
            LoadModelError::AtPath { ref source, .. } if matches!(**source, LoadModelError::Io { .. })
        ));
    }

    #[test]
    fn save_and_load_failpoints_fire() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tevot_model_fp_{}.bin", std::process::id()));
        let model = sample_regressor();
        {
            let _scope = tevot_resil::fail::scoped("model.save=io");
            assert!(save_regressor_path(&model, &path).is_err());
        }
        save_regressor_path(&model, &path).unwrap();
        {
            let _scope = tevot_resil::fail::scoped("model.load=io");
            let err = load_regressor_path(&path).unwrap_err();
            let tev: tevot_resil::TevotError = err.into();
            assert_eq!(tev.kind(), tevot_resil::ErrorKind::Io);
            assert!(tev.is_injected());
        }
        load_regressor_path(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// A one-tree regressor file over `num_features` features with the
    /// given `(feature, value, left, right)` nodes (gain 0).
    fn crafted(num_features: u64, nodes: &[(u32, f64, u32, u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&num_features.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
        for &(feature, value, left, right) in nodes {
            buf.extend_from_slice(&feature.to_le_bytes());
            buf.extend_from_slice(&value.to_le_bytes());
            buf.extend_from_slice(&left.to_le_bytes());
            buf.extend_from_slice(&right.to_le_bytes());
            buf.extend_from_slice(&0f64.to_le_bytes());
        }
        buf
    }

    /// Byte offset of node `i` in a [`crafted`] file.
    fn node_offset(i: u64) -> u64 {
        8 + 4 + 4 + 8 + 8 + 8 + 28 * i
    }

    fn format_error_at(buf: &[u8], offset: u64, needle: &str) {
        match load_regressor(buf).unwrap_err() {
            LoadModelError::Format { offset: at, message } => {
                assert_eq!(at, offset, "{message}");
                assert!(message.contains(needle), "{message}");
            }
            other => panic!("expected a format error, got {other}"),
        }
    }

    #[test]
    fn self_loop_is_rejected_at_its_node() {
        // Loaded Ok before, then `predict(&[0.0])` spun forever.
        format_error_at(&crafted(1, &[(0, 0.5, 0, 0)]), node_offset(0), "not after");
    }

    #[test]
    fn back_edge_is_rejected_at_its_node() {
        let nodes = [(0, 0.5, 1, 2), (0, 0.5, 3, 0), (u32::MAX, 1.0, 0, 0), (u32::MAX, 2.0, 0, 0)];
        format_error_at(&crafted(1, &nodes), node_offset(1), "not after");
    }

    #[test]
    fn shared_child_is_rejected() {
        let nodes = [(0, 0.5, 1, 1), (u32::MAX, 1.0, 0, 0)];
        format_error_at(&crafted(1, &nodes), node_offset(0), "two parents");
    }

    #[test]
    fn forward_referencing_tree_loads_in_preorder_and_resaves_stably() {
        // A right spine `k` deep whose left leaves sit after every
        // internal node: valid, but not preorder. Deep enough that a
        // recursive re-layout or depth walk would overflow the stack.
        let k = 100_000u32;
        let mut nodes: Vec<(u32, f64, u32, u32)> =
            (0..k).map(|i| (0, 0.5, k + i, if i + 1 < k { i + 1 } else { 2 * k })).collect();
        nodes.extend((0..=k).map(|i| (u32::MAX, f64::from(i), 0, 0)));
        let model = load_regressor(crafted(1, &nodes).as_slice()).unwrap();
        let tree = &model.trees()[0];
        assert_eq!(tree.num_nodes(), 2 * k as usize + 1);
        assert_eq!(tree.depth(), k as usize);
        assert_eq!(model.predict(&[0.0]), 0.0, "first split goes left to leaf k");
        assert_eq!(model.predict(&[1.0]), f64::from(k), "all right to leaf 2k");
        assert!(tree
            .nodes_raw()
            .enumerate()
            .all(|(i, (f, _, left, ..))| f == u32::MAX || left as usize == i + 1));

        let mut once = Vec::new();
        save_regressor(&model, &mut once).unwrap();
        let reloaded = load_regressor(once.as_slice()).unwrap();
        assert_eq!(reloaded, model);
        let mut twice = Vec::new();
        save_regressor(&reloaded, &mut twice).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn saved_files_resave_byte_identically() {
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        let mut again = Vec::new();
        save_regressor(&load_regressor(buf.as_slice()).unwrap(), &mut again).unwrap();
        assert_eq!(buf, again);
    }

    #[test]
    fn taxonomy_conversion_classifies_corruption() {
        let err = load_regressor(&b"NOTAMODELxxxxxxxxxxxxxxx"[..]).unwrap_err();
        let tev: tevot_resil::TevotError = err.at_path("model.bin").into();
        assert_eq!(tev.kind(), tevot_resil::ErrorKind::Corrupt);
        assert_eq!(tev.exit_code(), 4);
    }
}
