//! The shard manifest: a small text file tying a partitioned fleet
//! together.
//!
//! `hl-shard partition` writes one next to the shard stores it emits, as
//! the operator's record of the shard count, the vertex range, and where
//! each shard's store lives; nothing in this workspace reads it back
//! (`hl-shard query` takes `--shard` addresses). The format is
//! line-oriented ASCII so it diffs and greps cleanly:
//!
//! ```text
//! HLSM 1
//! shards 4
//! nodes 1048576
//! entries 104589145
//! shard 0 shard-0.hlbs
//! shard 1 shard-1.hlbs
//! shard 2 shard-2.hlbs
//! shard 3 shard-3.hlbs
//! ```
//!
//! Store paths are recorded as given (relative paths stay relative to
//! the manifest's own directory, which keeps a partition directory
//! relocatable as a unit). Paths may contain spaces — the path is
//! everything after the shard index.

use std::fmt::Write as _;
use std::path::Path;

use crate::error::ShardError;

/// Magic first line of a manifest file (name + format version).
pub const MANIFEST_MAGIC: &str = "HLSM 1";

/// Metadata for one `k`-way partitioned labeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Number of vertices every shard store covers (full-width).
    pub num_nodes: u64,
    /// Total label entries across all shards.
    pub num_entries: u64,
    /// Store path per shard, indexed by shard id.
    pub shard_paths: Vec<String>,
}

impl ShardManifest {
    /// Renders the manifest in its on-disk form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        // fmt::Write to a String cannot fail, so the results are dropped.
        let _ = writeln!(out, "{MANIFEST_MAGIC}");
        let _ = writeln!(out, "shards {}", self.shard_paths.len());
        let _ = writeln!(out, "nodes {}", self.num_nodes);
        let _ = writeln!(out, "entries {}", self.num_entries);
        for (i, path) in self.shard_paths.iter().enumerate() {
            let _ = writeln!(out, "shard {i} {path}");
        }
        out
    }

    /// Writes the manifest to `path`.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), ShardError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_the_documented_lines_including_paths_with_spaces() {
        let manifest = ShardManifest {
            num_nodes: 100,
            num_entries: 1234,
            shard_paths: vec!["shard-0.hlbs".into(), "sub dir/shard-1.hlbs".into()],
        };
        assert_eq!(
            manifest.encode(),
            "HLSM 1\nshards 2\nnodes 100\nentries 1234\n\
             shard 0 shard-0.hlbs\nshard 1 sub dir/shard-1.hlbs\n"
        );
    }
}
