//! Drive-aligned shard splitting of a SMART-log CSV byte stream.
//!
//! The splitter reads raw lines and groups them into [`Shard`]s of at least
//! `shard_rows` lines each, cutting only at a *drive boundary*: between two
//! lines whose leading `drive_id` fields both parse as integers and differ.
//! A drive's contiguous day-rows therefore never straddle a shard, so each
//! shard can be parsed independently and the per-shard drive runs
//! concatenate to exactly what the single-threaded reader builds.
//!
//! Lines that carry no parseable id (blank lines, malformed rows) are never
//! chosen as cut points; they stay attached to the current shard and are
//! diagnosed by the parser with their original line number.

use std::io::BufRead;

/// One contiguous slice of the input file, ready for independent parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Shard {
    /// 1-based line number (in the whole file) of the first line of `text`.
    pub first_line: usize,
    /// The raw lines, newlines included, exactly as read.
    pub text: String,
    /// Number of lines in `text` (blank lines included).
    pub rows: usize,
}

/// The `drive_id` prefix of a CSV line, when it parses as an integer.
/// Mirrors the strictness of the row parser: no whitespace trimming.
fn leading_id(line: &str) -> Option<u32> {
    let end = line.find(',')?;
    line[..end].parse().ok()
}

/// Incremental reader that yields drive-aligned [`Shard`]s.
pub(super) struct ShardSplitter<R> {
    input: R,
    shard_rows: usize,
    /// 1-based line number of the next line to hand out (the carry line if
    /// one is stashed, otherwise the next line read from `input`).
    next_line: usize,
    /// A line read past the current shard's cut point; it opens the next
    /// shard. Its id is cached so the run-tracking stays consistent.
    carry: Option<(String, Option<u32>)>,
    /// Byte size of the last shard, used to pre-size the next one.
    capacity_hint: usize,
    done: bool,
}

impl<R: BufRead> ShardSplitter<R> {
    /// `first_line` is the file line number of the first line `input` will
    /// yield (2 when the header has already been consumed).
    pub fn new(input: R, shard_rows: usize, first_line: usize) -> ShardSplitter<R> {
        ShardSplitter {
            input,
            shard_rows: shard_rows.max(1),
            next_line: first_line,
            carry: None,
            capacity_hint: 0,
            done: false,
        }
    }

    /// Read the next shard. `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader.
    pub fn next_shard(&mut self) -> std::io::Result<Option<Shard>> {
        let first_line = self.next_line;
        let mut text = String::with_capacity(self.capacity_hint);
        let mut rows = 0usize;
        let mut prev_id: Option<u32> = None;

        if let Some((line, id)) = self.carry.take() {
            text.push_str(&line);
            rows += 1;
            prev_id = id;
        }

        while !self.done {
            // Lines are read straight into the shard text — one copy per
            // line; only the one line that overshoots the cut point is
            // copied out again (into the carry) and truncated away.
            let line_start = text.len();
            if self.input.read_line(&mut text)? == 0 {
                self.done = true;
                break;
            }
            let line = &text[line_start..];
            let id = leading_id(line);
            if rows >= self.shard_rows && id.is_some() && prev_id.is_some() && id != prev_id {
                self.carry = Some((line.to_string(), id));
                text.truncate(line_start);
                break;
            }
            rows += 1;
            if id.is_some() {
                prev_id = id;
            } else if !line.trim().is_empty() {
                // A malformed data line: its drive run is unknowable, so no
                // cut may follow until a parseable id re-anchors the run.
                prev_id = None;
            }
            // Blank lines belong to no drive: prev_id is left untouched so a
            // cut stays legal right after them.
        }

        self.capacity_hint = self.capacity_hint.max(text.len());
        self.next_line = first_line + rows;
        if rows == 0 {
            return Ok(None);
        }
        Ok(Some(Shard {
            first_line,
            text,
            rows,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(spec: &[(u32, u32)]) -> String {
        spec.iter()
            .map(|(id, day)| format!("{id},MA1,{day}\n"))
            .collect()
    }

    fn split_all(text: &str, shard_rows: usize) -> Vec<Shard> {
        let mut splitter = ShardSplitter::new(text.as_bytes(), shard_rows, 2);
        let mut shards = Vec::new();
        while let Some(shard) = splitter.next_shard().unwrap() {
            shards.push(shard);
        }
        shards
    }

    #[test]
    fn shards_never_split_a_drive_run() {
        let text = lines(&[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]);
        let shards = split_all(&text, 2);
        // Drive 0 has 3 rows > shard_rows, but stays whole; each later
        // drive boundary past the threshold cuts a new shard.
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].rows, 3);
        assert!(shards[0].text.lines().all(|l| l.starts_with("0,")));
        assert_eq!(shards[1].rows, 2);
        assert_eq!(shards[1].first_line, 5);
        assert_eq!(shards[2].rows, 1);
        assert_eq!(shards[2].first_line, 7);
    }

    #[test]
    fn concatenation_is_lossless() {
        let text = lines(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]);
        for shard_rows in [1, 2, 3, 10] {
            let shards = split_all(&text, shard_rows);
            let joined: String = shards.iter().map(|s| s.text.as_str()).collect();
            assert_eq!(joined, text, "shard_rows={shard_rows}");
            let total: usize = shards.iter().map(|s| s.rows).sum();
            assert_eq!(total, 5);
        }
    }

    #[test]
    fn line_numbers_are_absolute() {
        let text = lines(&[(0, 0), (1, 0), (2, 0)]);
        let shards = split_all(&text, 1);
        let firsts: Vec<usize> = shards.iter().map(|s| s.first_line).collect();
        assert_eq!(firsts, vec![2, 3, 4]);
    }

    #[test]
    fn zero_padded_ids_compare_numerically() {
        // "007" and "7" are the same drive to the parser; the splitter must
        // not cut between them.
        let text = "007,MA1,0\n7,MA1,1\n8,MA1,0\n";
        let shards = split_all(text, 1);
        assert_eq!(shards[0].rows, 2, "{shards:?}");
    }

    #[test]
    fn malformed_id_blocks_the_cut() {
        let text = "0,MA1,0\nwhat,MA1,0\n1,MA1,0\n2,MA1,0\n";
        let shards = split_all(text, 1);
        // No cut directly after the malformed line; the next legal cut is
        // between drive 1 and drive 2.
        assert_eq!(shards[0].rows, 3);
        assert_eq!(shards[1].rows, 1);
    }

    #[test]
    fn blank_lines_do_not_block_cuts() {
        let text = "0,MA1,0\n\n1,MA1,0\n";
        let shards = split_all(text, 1);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].rows, 2); // drive 0 plus the blank line
        assert_eq!(shards[1].first_line, 4);
    }

    #[test]
    fn empty_input_yields_no_shards() {
        assert!(split_all("", 4).is_empty());
    }

    #[test]
    fn final_line_without_newline_is_kept() {
        let text = "0,MA1,0\n1,MA1,0";
        let shards = split_all(text, 1);
        let joined: String = shards.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(joined, text);
    }
}
