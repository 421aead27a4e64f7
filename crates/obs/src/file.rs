//! The workspace's one temp-file + rename write.
//!
//! Campaign checkpoints, the print shop's quote cache, and its job
//! journal all rewrite whole files through [`replace`]: the bytes land
//! in a `.tmp` sibling which is then renamed over the target, so a kill
//! at any point leaves either the old file or the new one, never a torn
//! mix. Whether the temp file is synced before the rename is the
//! caller's durability choice.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Replaces `path` with `bytes` through `<path>.tmp` and a rename. With
/// `sync` the temp file is flushed to stable storage before the rename.
///
/// # Errors
///
/// Returns the underlying I/O error if the temp file cannot be written
/// (or synced) or the rename fails.
pub fn replace(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    if sync {
        file.sync_all()?;
    }
    drop(file);
    fs::rename(&tmp, path)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn replace_overwrites_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("printed-obs-replace-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.jsonl");
        replace(&path, b"one\n", false).unwrap();
        replace(&path, b"two\n", true).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two\n");
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["state.jsonl"], "the temp sibling is renamed away");
        let _ = fs::remove_dir_all(&dir);
    }
}
