//! File reads that tell a missing file from a failed read.
//!
//! On open, a missing log or manifest means a fresh database; any other
//! read error (EIO, EMFILE, EACCES) must stop the open. Treating the two
//! alike would truncate a log that was never replayed, or open an
//! encrypted database as if it had no key.

use std::path::Path;

use crate::error::{JaguarError, Result};
use crate::fault;

/// Fault site consulted before every [`read_existing`].
pub const READ_EXISTING_SITE: &str = "fs.read_existing";

/// The whole file at `path`, or `None` if there is no such file. Every
/// other error is returned.
pub fn read_existing(path: &Path) -> Result<Option<Vec<u8>>> {
    if fault::should_fail(READ_EXISTING_SITE) {
        return Err(JaguarError::Io(std::io::Error::other(format!(
            "injected fault at {READ_EXISTING_SITE} reading {}",
            path.display()
        ))));
    }
    match std::fs::read(path) {
        Ok(raw) => Ok(Some(raw)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_is_none_and_a_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("jaguar-fs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_existing(&dir.join("absent")).unwrap().is_none());
        std::fs::write(dir.join("present"), b"x").unwrap();
        assert_eq!(read_existing(&dir.join("present")).unwrap().unwrap(), b"x");
        // Reading a directory fails with something other than NotFound.
        assert!(read_existing(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
