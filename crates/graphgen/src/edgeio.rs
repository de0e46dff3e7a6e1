//! Edge-list files: one `src dst\n` pair per line, `#`-prefixed comment
//! lines ignored — the ASCII format the thesis' ingestion experiments
//! stream in.

use mssg_types::{Edge, Gid, GraphStorageError, Result};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Writes an edge stream as ASCII, returning the number of edges written.
pub fn write_ascii(path: &Path, edges: impl Iterator<Item = Edge>) -> Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut count = 0u64;
    for e in edges {
        writeln!(w, "{} {}", e.src.raw(), e.dst.raw())?;
        count += 1;
    }
    w.flush()?;
    Ok(count)
}

/// Streaming reader for ASCII edge lists.
pub struct AsciiEdgeReader<R: BufRead> {
    lines: std::io::Lines<R>,
    line_no: u64,
}

impl AsciiEdgeReader<BufReader<File>> {
    /// Opens an ASCII edge-list file.
    pub fn open(path: &Path) -> Result<Self> {
        Ok(AsciiEdgeReader {
            lines: BufReader::new(File::open(path)?).lines(),
            line_no: 0,
        })
    }
}

impl<R: BufRead> AsciiEdgeReader<R> {
    /// Wraps any buffered reader.
    pub fn new(reader: R) -> Self {
        AsciiEdgeReader {
            lines: reader.lines(),
            line_no: 0,
        }
    }

    fn parse(&self, line: &str) -> Result<Option<Edge>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut it = line.split_ascii_whitespace();
        let bad = |what: &str| {
            GraphStorageError::corrupt(format!(
                "ASCII edge list line {}: {what}: {line:?}",
                self.line_no
            ))
        };
        let src: u64 = it
            .next()
            .ok_or_else(|| bad("missing src"))?
            .parse()
            .map_err(|_| bad("bad src"))?;
        let dst: u64 = it
            .next()
            .ok_or_else(|| bad("missing dst"))?
            .parse()
            .map_err(|_| bad("bad dst"))?;
        if it.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        let src = Gid::try_new(src).ok_or_else(|| bad("src overflows 61 bits"))?;
        let dst = Gid::try_new(dst).ok_or_else(|| bad("dst overflows 61 bits"))?;
        Ok(Some(Edge::new(src, dst)))
    }
}

impl<R: BufRead> Iterator for AsciiEdgeReader<R> {
    type Item = Result<Edge>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.lines.next()? {
                Ok(l) => l,
                Err(e) => return Some(Err(e.into())),
            };
            self.line_no += 1;
            match self.parse(&line) {
                Ok(Some(edge)) => return Some(Ok(edge)),
                Ok(None) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("graphgen-io-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(tag)
    }

    fn sample_edges() -> Vec<Edge> {
        vec![Edge::of(0, 1), Edge::of(1, 2), Edge::of(1_000_000, 7)]
    }

    #[test]
    fn ascii_roundtrip() {
        let p = tmpfile("a.txt");
        let edges = sample_edges();
        let n = write_ascii(&p, edges.iter().copied()).unwrap();
        assert_eq!(n, 3);
        let back: Vec<Edge> = AsciiEdgeReader::open(&p)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(back, edges);
    }

    #[test]
    fn ascii_skips_comments_and_blanks() {
        let text = "# comment\n\n0 1\n  # indented comment\n2 3\n";
        let edges: Vec<Edge> = AsciiEdgeReader::new(Cursor::new(text))
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(edges, vec![Edge::of(0, 1), Edge::of(2, 3)]);
    }

    #[test]
    fn ascii_rejects_garbage() {
        let cases = ["0\n", "a b\n", "1 2 3\n", "99999999999999999999 1\n"];
        for c in cases {
            let r: Result<Vec<Edge>> = AsciiEdgeReader::new(Cursor::new(c)).collect();
            assert!(r.is_err(), "{c:?} should fail");
        }
    }

    #[test]
    fn ascii_error_mentions_line_number() {
        let text = "0 1\nbroken\n";
        let err = AsciiEdgeReader::new(Cursor::new(text))
            .collect::<Result<Vec<_>>>()
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_files() {
        let p = tmpfile("empty.txt");
        write_ascii(&p, std::iter::empty()).unwrap();
        assert_eq!(AsciiEdgeReader::open(&p).unwrap().count(), 0);
    }
}
