//! B-tree search, insertion (with node splits), deletion, and range scans,
//! all expressed over a [`Pager`].
//!
//! Design notes:
//! - Separator convention: in an internal node, `children[i]` holds keys
//!   `< keys[i]` and `children[i+1]` holds keys `>= keys[i]`; the child for
//!   a lookup is `partition_point(keys, k <= target)`.
//! - Splits are size-driven: a node splits when its encoding no longer fits
//!   the page, so the tree adapts to variable-length keys and values.
//! - Deletion is lazy (no merging/rebalancing) — BerkeleyDB behaves the
//!   same way by default; freed overflow chains are recycled.
//! - Values larger than `page_size / 4` spill to overflow chains.

use crate::page::{LeafValue, Page};
use crate::pager::Pager;
use mssg_types::{GraphStorageError, Result};

/// Largest value stored inline in a leaf.
pub fn inline_threshold(page_size: usize) -> usize {
    page_size / 4
}

/// Largest allowed key; guarantees splits always terminate.
pub fn max_key_len(page_size: usize) -> usize {
    page_size / 8
}

/// Looks up `key`, materialising overflow values.
pub fn get(pager: &mut Pager, key: &[u8]) -> Result<Option<Vec<u8>>> {
    let mut page_id = pager.root;
    loop {
        match pager.read_page(page_id)? {
            Page::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                page_id = children[idx];
            }
            Page::Leaf { entries } => {
                return match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => Ok(Some(read_value(pager, &entries[i].1)?)),
                    Err(_) => Ok(None),
                };
            }
            _ => {
                return Err(GraphStorageError::corrupt(
                    "tree descent hit a non-tree page",
                ))
            }
        }
    }
}

/// Inserts or replaces `key`. Returns `true` if the key was new.
pub fn put(pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
    let ps = pager.page_size();
    if key.is_empty() || key.len() > max_key_len(ps) {
        return Err(GraphStorageError::InvalidVertex(format!(
            "key length {} outside 1..={}",
            key.len(),
            max_key_len(ps)
        )));
    }
    let leaf_value = if value.len() > inline_threshold(ps) {
        let (first_page, total_len) = write_overflow(pager, value)?;
        LeafValue::Overflow {
            first_page,
            total_len,
        }
    } else {
        LeafValue::Inline(value.to_vec())
    };

    // Descend, recording the path of (page_id, child_idx).
    let mut path: Vec<(u64, usize)> = Vec::new();
    let mut page_id = pager.root;
    let mut leaf_entries = loop {
        match pager.read_page(page_id)? {
            Page::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                path.push((page_id, idx));
                page_id = children[idx];
            }
            Page::Leaf { entries } => break entries,
            _ => {
                return Err(GraphStorageError::corrupt(
                    "tree descent hit a non-tree page",
                ))
            }
        }
    };

    let inserted = match leaf_entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
        Ok(i) => {
            // Replace: free any old overflow chain.
            if let LeafValue::Overflow { first_page, .. } = leaf_entries[i].1 {
                free_overflow(pager, first_page)?;
            }
            leaf_entries[i].1 = leaf_value;
            false
        }
        Err(i) => {
            leaf_entries.insert(i, (key.to_vec(), leaf_value));
            true
        }
    };
    if inserted {
        pager.len += 1;
    }

    // Write the leaf back, splitting as needed, then propagate splits up.
    let mut pending = write_maybe_split_leaf(pager, page_id, leaf_entries)?;
    while let Some((sep, right_id)) = pending {
        match path.pop() {
            Some((parent_id, child_idx)) => {
                let (mut keys, mut children) = match pager.read_page(parent_id)? {
                    Page::Internal { keys, children } => (keys, children),
                    _ => return Err(GraphStorageError::corrupt("split parent is not internal")),
                };
                keys.insert(child_idx, sep);
                children.insert(child_idx + 1, right_id);
                pending = write_maybe_split_internal(pager, parent_id, keys, children)?;
            }
            None => {
                // Root split: grow the tree by one level.
                let old_root = pager.root;
                let new_root = pager.allocate()?;
                pager.write_page(
                    new_root,
                    &Page::Internal {
                        keys: vec![sep],
                        children: vec![old_root, right_id],
                    },
                )?;
                pager.root = new_root;
                pending = None;
            }
        }
    }
    Ok(inserted)
}

/// Removes `key`. Returns `true` if it was present.
pub fn delete(pager: &mut Pager, key: &[u8]) -> Result<bool> {
    let mut page_id = pager.root;
    loop {
        match pager.read_page(page_id)? {
            Page::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                page_id = children[idx];
            }
            Page::Leaf { mut entries } => {
                return match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        let (_, value) = entries.remove(i);
                        if let LeafValue::Overflow { first_page, .. } = value {
                            free_overflow(pager, first_page)?;
                        }
                        pager.write_page(page_id, &Page::Leaf { entries })?;
                        pager.len -= 1;
                        Ok(true)
                    }
                    Err(_) => Ok(false),
                };
            }
            _ => {
                return Err(GraphStorageError::corrupt(
                    "tree descent hit a non-tree page",
                ))
            }
        }
    }
}

/// Visits every `(key, value)` with `start <= key < end` in key order
/// (`None` bounds are open). The callback returns `false` to stop early.
pub fn for_each_range(
    pager: &mut Pager,
    start: Option<&[u8]>,
    end: Option<&[u8]>,
    cb: &mut dyn FnMut(&[u8], Vec<u8>) -> bool,
) -> Result<()> {
    let root = pager.root;
    visit(pager, root, start, end, cb)?;
    Ok(())
}

/// Recursive range visitor; returns `false` when the callback stopped.
fn visit(
    pager: &mut Pager,
    page_id: u64,
    start: Option<&[u8]>,
    end: Option<&[u8]>,
    cb: &mut dyn FnMut(&[u8], Vec<u8>) -> bool,
) -> Result<bool> {
    match pager.read_page(page_id)? {
        Page::Internal { keys, children } => {
            let first = match start {
                Some(s) => keys.partition_point(|k| k.as_slice() <= s),
                None => 0,
            };
            let last = match end {
                Some(e) => keys.partition_point(|k| k.as_slice() < e),
                None => keys.len(),
            };
            for child in children[first..=last].iter().copied() {
                if !visit(pager, child, start, end, cb)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Page::Leaf { entries } => {
            for (k, v) in entries {
                if let Some(s) = start {
                    if k.as_slice() < s {
                        continue;
                    }
                }
                if let Some(e) = end {
                    if k.as_slice() >= e {
                        return Ok(false);
                    }
                }
                let value = read_value(pager, &v)?;
                if !cb(&k, value) {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        _ => Err(GraphStorageError::corrupt("range scan hit a non-tree page")),
    }
}

/// Writes a leaf back, splitting if it no longer fits. Returns the promoted
/// `(separator, right_page)` if a split happened.
fn write_maybe_split_leaf(
    pager: &mut Pager,
    page_id: u64,
    entries: Vec<(Vec<u8>, LeafValue)>,
) -> Result<Option<(Vec<u8>, u64)>> {
    let ps = pager.page_size();
    let page = Page::Leaf { entries };
    if page.encoded_len() <= ps {
        pager.write_page(page_id, &page)?;
        return Ok(None);
    }
    let Page::Leaf { entries } = page else {
        unreachable!()
    };
    let mid = split_point_leaf(&entries, ps);
    let right_entries = entries[mid..].to_vec();
    let left_entries = entries[..mid].to_vec();
    let sep = right_entries[0].0.clone();
    let right_id = pager.allocate()?;
    pager.write_page(
        page_id,
        &Page::Leaf {
            entries: left_entries,
        },
    )?;
    pager.write_page(
        right_id,
        &Page::Leaf {
            entries: right_entries,
        },
    )?;
    Ok(Some((sep, right_id)))
}

/// Split point that keeps both halves under the page size (by encoded
/// bytes, since entries vary in size).
fn split_point_leaf(entries: &[(Vec<u8>, LeafValue)], _ps: usize) -> usize {
    let total: usize = entries
        .iter()
        .map(|(k, v)| 2 + k.len() + v.encoded_len())
        .sum();
    let mut acc = 0usize;
    for (i, (k, v)) in entries.iter().enumerate() {
        acc += 2 + k.len() + v.encoded_len();
        if acc * 2 >= total {
            // Never produce an empty side.
            return (i + 1).min(entries.len() - 1).max(1);
        }
    }
    entries.len() / 2
}

/// Writes an internal node back, splitting if needed.
fn write_maybe_split_internal(
    pager: &mut Pager,
    page_id: u64,
    keys: Vec<Vec<u8>>,
    children: Vec<u64>,
) -> Result<Option<(Vec<u8>, u64)>> {
    let ps = pager.page_size();
    let page = Page::Internal { keys, children };
    if page.encoded_len() <= ps {
        pager.write_page(page_id, &page)?;
        return Ok(None);
    }
    let Page::Internal {
        mut keys,
        mut children,
    } = page
    else {
        unreachable!()
    };
    let mid = keys.len() / 2;
    let promoted = keys[mid].clone();
    let right_keys = keys.split_off(mid + 1);
    keys.pop(); // `promoted` moves up, not right.
    let right_children = children.split_off(mid + 1);
    let right_id = pager.allocate()?;
    pager.write_page(page_id, &Page::Internal { keys, children })?;
    pager.write_page(
        right_id,
        &Page::Internal {
            keys: right_keys,
            children: right_children,
        },
    )?;
    Ok(Some((promoted, right_id)))
}

/// Materialises a leaf value (following overflow chains).
pub fn read_value(pager: &mut Pager, value: &LeafValue) -> Result<Vec<u8>> {
    match value {
        LeafValue::Inline(v) => Ok(v.clone()),
        LeafValue::Overflow {
            first_page,
            total_len,
        } => {
            // The length is read off disk: size the buffer no larger than
            // the file could hold, and stop once the chain outruns it.
            let file_bytes = pager.pages.saturating_mul(pager.page_size() as u64);
            let mut out = Vec::with_capacity((*total_len).min(file_bytes) as usize);
            let mut page_id = *first_page;
            while page_id != 0 && out.len() as u64 <= *total_len {
                match pager.read_page(page_id)? {
                    Page::Overflow { next, data } => {
                        out.extend_from_slice(&data);
                        page_id = next;
                    }
                    _ => {
                        return Err(GraphStorageError::corrupt(
                            "overflow chain hit a non-overflow page",
                        ))
                    }
                }
            }
            if out.len() as u64 != *total_len {
                return Err(GraphStorageError::corrupt(format!(
                    "overflow chain yielded {} bytes, expected {total_len}",
                    out.len()
                )));
            }
            Ok(out)
        }
    }
}

/// Writes `value` into a fresh overflow chain; returns `(first_page, len)`.
fn write_overflow(pager: &mut Pager, value: &[u8]) -> Result<(u64, u64)> {
    let ps = pager.page_size();
    let chunk = ps - 13; // tag + next(8) + len(4)
    let mut pieces: Vec<&[u8]> = value.chunks(chunk).collect();
    if pieces.is_empty() {
        pieces.push(&[]);
    }
    // Allocate then link back-to-front so each page knows its successor.
    let ids: Vec<u64> = pieces
        .iter()
        .map(|_| pager.allocate())
        .collect::<Result<_>>()?;
    for (i, piece) in pieces.iter().enumerate() {
        let next = ids.get(i + 1).copied().unwrap_or(0);
        pager.write_page(
            ids[i],
            &Page::Overflow {
                next,
                data: piece.to_vec(),
            },
        )?;
    }
    Ok((ids[0], value.len() as u64))
}

/// Frees an overflow chain starting at `first_page`.
fn free_overflow(pager: &mut Pager, first_page: u64) -> Result<()> {
    let mut page_id = first_page;
    while page_id != 0 {
        let next = match pager.read_page(page_id)? {
            Page::Overflow { next, .. } => next,
            _ => return Err(GraphStorageError::corrupt("freeing a non-overflow page")),
        };
        pager.free(page_id)?;
        page_id = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simio::IoStats;

    fn pager(tag: &str, page_size: usize) -> Pager {
        let d = std::env::temp_dir().join(format!("kvdb-tree-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(tag);
        let _ = std::fs::remove_file(&p);
        Pager::open(&p, page_size, 64, IoStats::new()).unwrap()
    }

    #[test]
    fn put_get_single() {
        let mut p = pager("single.db", 256);
        assert!(put(&mut p, b"hello", b"world").unwrap());
        assert_eq!(get(&mut p, b"hello").unwrap(), Some(b"world".to_vec()));
        assert_eq!(get(&mut p, b"nope").unwrap(), None);
        assert_eq!(p.len, 1);
    }

    #[test]
    fn an_overflow_length_past_the_chain_is_corrupt() {
        let mut p = pager("overflow-len.db", 256);
        // A chain of its own, read with a length no file can hold.
        let (first_page, total_len) = write_overflow(&mut p, &[7u8; 1000]).unwrap();
        assert_eq!(total_len, 1000);
        for first_page in [0, first_page] {
            let value = LeafValue::Overflow {
                first_page,
                total_len: u64::MAX,
            };
            let got = read_value(&mut p, &value);
            assert!(matches!(got, Err(GraphStorageError::Corrupt(_))), "{got:?}");
        }
    }

    #[test]
    fn replace_does_not_grow() {
        let mut p = pager("replace.db", 256);
        put(&mut p, b"k", b"v1").unwrap();
        assert!(!put(&mut p, b"k", b"v2").unwrap());
        assert_eq!(get(&mut p, b"k").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(p.len, 1);
    }

    #[test]
    fn many_keys_force_splits() {
        let mut p = pager("splits.db", 256);
        let n = 500u32;
        for i in 0..n {
            let k = format!("key{i:05}");
            let v = format!("value-{i}");
            put(&mut p, k.as_bytes(), v.as_bytes()).unwrap();
        }
        assert_eq!(p.len, n as u64);
        for i in 0..n {
            let k = format!("key{i:05}");
            assert_eq!(
                get(&mut p, k.as_bytes()).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "key {i}"
            );
        }
    }

    #[test]
    fn random_order_inserts() {
        let mut p = pager("random.db", 256);
        let mut keys: Vec<u32> = (0..400).collect();
        // Deterministic shuffle.
        let mut x = 99u64;
        for i in (1..keys.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for &k in &keys {
            put(&mut p, &k.to_be_bytes(), &k.to_le_bytes()).unwrap();
        }
        for k in 0..400u32 {
            assert_eq!(
                get(&mut p, &k.to_be_bytes()).unwrap(),
                Some(k.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn large_values_overflow_and_roundtrip() {
        let mut p = pager("overflow.db", 256);
        let big = vec![0xCDu8; 5000];
        put(&mut p, b"big", &big).unwrap();
        assert_eq!(get(&mut p, b"big").unwrap(), Some(big.clone()));
        // Replace repeatedly: the new chain is written before the old one
        // is freed, so the first replacement may grow the file, but from
        // then on freed chain pages must be recycled and the file must stop
        // growing.
        let big2 = vec![0xEFu8; 5000];
        put(&mut p, b"big", &big2).unwrap();
        let steady = p.pages;
        for fill in [1u8, 2, 3] {
            let next = vec![fill; 5000];
            put(&mut p, b"big", &next).unwrap();
            assert_eq!(get(&mut p, b"big").unwrap(), Some(next));
        }
        assert_eq!(
            p.pages, steady,
            "steady-state replacement must reuse freed pages"
        );
    }

    #[test]
    fn delete_removes_and_len_tracks() {
        let mut p = pager("delete.db", 256);
        for i in 0..100u32 {
            put(&mut p, &i.to_be_bytes(), b"x").unwrap();
        }
        assert!(delete(&mut p, &7u32.to_be_bytes()).unwrap());
        assert!(!delete(&mut p, &7u32.to_be_bytes()).unwrap());
        assert_eq!(get(&mut p, &7u32.to_be_bytes()).unwrap(), None);
        assert_eq!(p.len, 99);
        // Other keys untouched.
        assert_eq!(
            get(&mut p, &8u32.to_be_bytes()).unwrap(),
            Some(b"x".to_vec())
        );
    }

    #[test]
    fn delete_frees_overflow_chain() {
        let mut p = pager("delfree.db", 256);
        put(&mut p, b"big", &vec![1u8; 4000]).unwrap();
        let pages_after_insert = p.pages;
        delete(&mut p, b"big").unwrap();
        put(&mut p, b"big2", &vec![2u8; 4000]).unwrap();
        assert!(
            p.pages <= pages_after_insert + 1,
            "chain pages must be recycled"
        );
    }

    #[test]
    fn range_scan_in_order() {
        let mut p = pager("scan.db", 256);
        for i in (0..200u32).rev() {
            put(&mut p, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        for_each_range(&mut p, None, None, &mut |k, _| {
            seen.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_range_scan() {
        let mut p = pager("range.db", 256);
        for i in 0..100u32 {
            put(&mut p, &i.to_be_bytes(), b"v").unwrap();
        }
        let mut seen = Vec::new();
        let lo = 10u32.to_be_bytes();
        let hi = 20u32.to_be_bytes();
        for_each_range(&mut p, Some(&lo), Some(&hi), &mut |k, _| {
            seen.push(u32::from_be_bytes(k.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn early_stop_scan() {
        let mut p = pager("stop.db", 256);
        for i in 0..100u32 {
            put(&mut p, &i.to_be_bytes(), b"v").unwrap();
        }
        let mut count = 0;
        for_each_range(&mut p, None, None, &mut |_, _| {
            count += 1;
            count < 5
        })
        .unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn persistence_with_splits() {
        let d = std::env::temp_dir().join(format!("kvdb-tree-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let path = d.join("persist2.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut p = Pager::open(&path, 256, 64, IoStats::new()).unwrap();
            for i in 0..300u32 {
                put(&mut p, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            p.flush().unwrap();
        }
        let mut p = Pager::open(&path, 256, 64, IoStats::new()).unwrap();
        assert_eq!(p.len, 300);
        for i in 0..300u32 {
            assert_eq!(
                get(&mut p, &i.to_be_bytes()).unwrap(),
                Some(i.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn key_length_limits() {
        let mut p = pager("keylimit.db", 256);
        assert!(put(&mut p, &[], b"v").is_err());
        assert!(put(&mut p, &[0u8; 33], b"v").is_err()); // > 256/8
        assert!(put(&mut p, &[0u8; 32], b"v").is_ok());
    }

    #[test]
    fn empty_value_roundtrip() {
        let mut p = pager("emptyval.db", 256);
        put(&mut p, b"k", b"").unwrap();
        assert_eq!(get(&mut p, b"k").unwrap(), Some(vec![]));
    }

    #[test]
    fn interleaved_ops_stay_consistent() {
        let mut p = pager("interleave.db", 512);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 0xdeadbeefu64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = ((x >> 8) % 200) as u32;
            match x % 4 {
                0 => {
                    let v = vec![(x % 251) as u8; (x % 60) as usize];
                    put(&mut p, &key.to_be_bytes(), &v).unwrap();
                    model.insert(key, v);
                }
                1 => {
                    let deleted = delete(&mut p, &key.to_be_bytes()).unwrap();
                    assert_eq!(deleted, model.remove(&key).is_some());
                }
                _ => {
                    let got = get(&mut p, &key.to_be_bytes()).unwrap();
                    assert_eq!(got.as_ref(), model.get(&key), "key {key}");
                }
            }
        }
        assert_eq!(p.len as usize, model.len());
        // Full scan must agree with the model.
        let mut scanned = Vec::new();
        for_each_range(&mut p, None, None, &mut |k, v| {
            scanned.push((u32::from_be_bytes(k.try_into().unwrap()), v));
            true
        })
        .unwrap();
        let expected: Vec<(u32, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(scanned, expected);
    }
}
