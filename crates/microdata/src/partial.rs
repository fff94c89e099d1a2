//! Files that appear at their path only once they are complete.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A file written to `<path>.partial` and renamed to `path` by
/// [`PartialFile::commit`]. Dropped before its commit, it removes the
/// partial file, so a run that fails leaves nothing at `path` that was not
/// there before: no file, or the earlier one byte for byte.
#[derive(Debug)]
pub struct PartialFile {
    path: PathBuf,
    partial: PathBuf,
    /// `None` once committed.
    file: Option<File>,
}

impl PartialFile {
    /// Creates `<path>.partial`. A path that names no file, or names a
    /// directory, is refused here rather than at the rename.
    pub fn create(path: &Path) -> io::Result<PartialFile> {
        if path.file_name().is_none() || path.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "not a file path",
            ));
        }
        let mut partial = path.as_os_str().to_owned();
        partial.push(".partial");
        let partial = PathBuf::from(partial);
        let file = File::create(&partial)?;
        Ok(PartialFile {
            path: path.to_owned(),
            partial,
            file: Some(file),
        })
    }

    /// The path the file is renamed to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Closes the file and renames it to its path. If the rename fails,
    /// the partial file is removed.
    pub fn commit(mut self) -> io::Result<()> {
        drop(self.file.take());
        std::fs::rename(&self.partial, &self.path).inspect_err(|_| {
            let _ = std::fs::remove_file(&self.partial);
        })
    }

    fn file(&mut self) -> &mut File {
        self.file.as_mut().expect("an uncommitted file is open")
    }
}

impl Write for PartialFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file().write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file().flush()
    }
}

impl Drop for PartialFile {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.partial);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_committed_file_reaches_its_path() {
        let dir = std::env::temp_dir().join("tclose_partial_file_tests");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (path, partial) = (dir.join("out.csv"), dir.join("out.csv.partial"));

        let mut file = PartialFile::create(&path).unwrap();
        file.write_all(b"a,b\n").unwrap();
        assert!(!path.exists() && partial.exists());
        file.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"a,b\n");
        assert!(!partial.exists());

        // Dropped uncommitted: the earlier file stays, byte for byte.
        let mut file = PartialFile::create(&path).unwrap();
        file.write_all(b"half").unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"a,b\n");
        assert!(!partial.exists());

        for bad in [dir.clone(), PathBuf::from("/")] {
            let err = PartialFile::create(&bad).unwrap_err();
            assert_eq!(err.to_string(), "not a file path");
        }
    }
}
