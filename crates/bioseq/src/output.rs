//! The one way a whole file is written: [`replace`] writes it beside
//! the target and renames it into place, so a process killed or failing
//! mid-write leaves the old bytes or the new, never a prefix.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes `path` through `fill` into the sibling `<path>.part`, which is
/// renamed over `path` when `fill` and the flush succeed and removed
/// otherwise. Nothing is synced: a power cut is not guarded against.
///
/// A target that is not a regular file (a device, a FIFO, a terminal)
/// is written in place, and a directory is the in-place write's error.
/// A symbolic link is followed, so it stays a link, and an existing file
/// keeps its permissions; one this process may not write is refused.
///
/// # Errors
/// The outer error is the file system's, the inner one `fill`'s.
pub fn replace<E>(
    path: impl AsRef<Path>,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> io::Result<Result<(), E>> {
    let mut path = path.as_ref().to_path_buf();
    let mode = match OpenOptions::new().write(true).open(&path) {
        Ok(file) if !file.metadata()?.is_file() => return fill_and_flush(file, fill),
        Ok(file) => Some(file.metadata()?.permissions()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    // As many links as the kernel follows before it gives up (ELOOP).
    for _ in 0..40 {
        let Ok(to) = fs::read_link(&path) else { break };
        path.set_file_name(to);
    }
    let mut part = path.clone().into_os_string();
    part.push(".part");
    let written = File::create(&part).and_then(|file| {
        mode.map_or(Ok(()), |mode| file.set_permissions(mode))?;
        fill_and_flush(file, fill)
    });
    let written = match written {
        Ok(Ok(())) => fs::rename(&part, &path).map(Ok),
        failed => failed,
    };
    if !matches!(written, Ok(Ok(()))) {
        let _ = fs::remove_file(&part);
    }
    written
}

fn fill_and_flush<E>(
    file: File,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> io::Result<Result<(), E>> {
    let mut w = BufWriter::new(file);
    match fill(&mut w) {
        Ok(()) => w.flush().map(Ok),
        Err(e) => Ok(Err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::fs::{symlink, FileTypeExt, PermissionsExt};
    use std::path::PathBuf;

    /// A fresh directory under the system's temporary one.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bioseq-output-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(path: &Path, bytes: &[u8]) -> io::Result<()> {
        replace(path, |w| w.write_all(bytes))?
    }

    fn part_of(path: &Path) -> PathBuf {
        let mut part = path.as_os_str().to_owned();
        part.push(".part");
        part.into()
    }

    #[test]
    fn a_fill_that_fails_after_any_byte_leaves_the_old_file_and_no_part() {
        let dir = scratch("every-byte");
        let target = dir.join("out.txt");
        let new = b"contig_1\nACGTACGTAC\ncontig_2\nTTGCA\n";
        for k in 0..=new.len() {
            fs::write(&target, b"old bytes\n").unwrap();
            let failed = replace(&target, |w| {
                for (i, b) in new.iter().enumerate() {
                    if i == k {
                        return Err(format!("stopped after byte {k}"));
                    }
                    w.write_all(&[*b]).map_err(|e| e.to_string())?;
                    // The prefix reaches the temporary file itself.
                    w.flush().map_err(|e| e.to_string())?;
                }
                Err(format!("stopped after byte {k}"))
            });
            assert_eq!(failed.unwrap(), Err(format!("stopped after byte {k}")));
            assert_eq!(fs::read(&target).unwrap(), b"old bytes\n", "k = {k}");
            assert!(!part_of(&target).exists(), "k = {k}");
        }
        put(&target, new).unwrap();
        assert_eq!(fs::read(&target).unwrap(), new);
        assert!(!part_of(&target).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stale_part_is_overwritten_and_a_missing_target_is_made() {
        let dir = scratch("stale");
        let target = dir.join("new.tsv");
        fs::write(part_of(&target), b"a torn prefix from a killed run").unwrap();
        put(&target, b"whole\n").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"whole\n");
        assert!(!part_of(&target).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_symlinked_target_stays_a_link_and_its_file_gets_the_bytes() {
        let dir = scratch("symlink");
        let (file, link) = (dir.join("real.csv"), dir.join("link.csv"));
        fs::write(&file, b"old\n").unwrap();
        symlink("real.csv", &link).unwrap();
        put(&link, b"new\n").unwrap();
        assert!(fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink());
        assert_eq!(fs::read(&file).unwrap(), b"new\n");
        // A dangling link is followed too: the file it names is made.
        let (gone, dangling) = (dir.join("gone.csv"), dir.join("dangling.csv"));
        symlink("gone.csv", &dangling).unwrap();
        put(&dangling, b"made\n").unwrap();
        assert!(fs::symlink_metadata(&dangling)
            .unwrap()
            .file_type()
            .is_symlink());
        assert_eq!(fs::read(&gone).unwrap(), b"made\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_existing_target_keeps_its_permissions() {
        let dir = scratch("mode");
        let target = dir.join("secret.prom");
        fs::write(&target, b"old\n").unwrap();
        fs::set_permissions(&target, fs::Permissions::from_mode(0o600)).unwrap();
        put(&target, b"new\n").unwrap();
        let mode = fs::metadata(&target).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o600);
        assert_eq!(fs::read(&target).unwrap(), b"new\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_fifo_is_written_in_place() {
        let dir = scratch("fifo");
        let fifo = dir.join("pipe");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.unwrap().success(), "mkfifo");
        let reader = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fs::read(fifo).unwrap())
        };
        put(&fifo, b"through the pipe\n").unwrap();
        // Checked before the join: a reader left waiting on a FIFO that
        // was renamed over would never return.
        assert!(fs::symlink_metadata(&fifo).unwrap().file_type().is_fifo());
        assert!(!part_of(&fifo).exists());
        assert_eq!(reader.join().unwrap(), b"through the pipe\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What `/dev/stdout` is when stdout is a pipe: a link to a
    /// `/proc/self/fd` entry whose own target (`pipe:[…]`) names no file.
    #[test]
    fn a_link_to_an_open_pipe_is_written_in_place() {
        use std::os::fd::AsRawFd;
        let dir = scratch("pipe-link");
        let (mut reader, writer) = io::pipe().unwrap();
        let link = dir.join("stdout");
        symlink(format!("/proc/self/fd/{}", writer.as_raw_fd()), &link).unwrap();
        put(&link, b"down the pipe\n").unwrap();
        drop(writer);
        let mut got = Vec::new();
        io::Read::read_to_end(&mut reader, &mut got).unwrap();
        assert_eq!(got, b"down the pipe\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_directory_is_the_in_place_error() {
        let dir = scratch("dir");
        let err = put(&dir, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::IsADirectory);
        let missing = dir.join("no-such-dir").join("x.csv");
        let err = put(&missing, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&dir).unwrap();
    }
}
