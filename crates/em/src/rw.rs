//! Sequential block-buffered readers and writers of record files.

use std::marker::PhantomData;

use crate::{EmContext, EmError, Record, Result, TupleFile};

/// Appends records to a new file, one block at a time.
///
/// The writer keeps exactly one block of local buffer (the "output block" of
/// the EM model); full blocks are handed to the buffer pool, which writes them
/// to disk lazily (on eviction or flush).
///
/// The file exists from construction on.  A writer dropped before
/// [`finish`](TupleWriter::finish) succeeds deletes it, so an error that
/// abandons a half-written file leaves nothing behind on the device.
#[derive(Debug)]
pub struct TupleWriter<'a, T: Record> {
    ctx: &'a EmContext,
    /// The file being written; `None` once `finish` has handed it over.
    file_id: Option<crate::FileId>,
    block: Vec<u8>,
    in_block: usize,
    per_block: usize,
    next_block: u64,
    total: u64,
    _marker: PhantomData<fn(T)>,
}

impl<'a, T: Record> TupleWriter<'a, T> {
    pub(crate) fn new(ctx: &'a EmContext) -> Result<Self> {
        let block_size = ctx.config().block_size;
        if T::SIZE > block_size {
            return Err(EmError::RecordTooLarge {
                record_size: T::SIZE,
                block_size,
            });
        }
        Ok(TupleWriter {
            ctx,
            file_id: Some(ctx.create_raw_file()?),
            block: vec![0u8; block_size],
            in_block: 0,
            per_block: block_size / T::SIZE,
            next_block: 0,
            total: 0,
            _marker: PhantomData,
        })
    }

    /// Number of records written so far.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends one record.
    pub fn push(&mut self, rec: &T) -> Result<()> {
        let at = self.in_block * T::SIZE;
        rec.encode(&mut self.block[at..at + T::SIZE]);
        self.in_block += 1;
        self.total += 1;
        if self.in_block == self.per_block {
            self.spill()?;
        }
        Ok(())
    }

    /// Appends every record of the iterator.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) -> Result<()> {
        for rec in iter {
            self.push(&rec)?;
        }
        Ok(())
    }

    /// Flushes the partial block and returns the handle to the finished file.
    pub fn finish(mut self) -> Result<TupleFile<T>> {
        if self.in_block > 0 {
            self.spill()?;
        }
        let id = self.file_id.take().expect("file present until finished");
        Ok(TupleFile::from_parts(id, self.total))
    }

    fn spill(&mut self) -> Result<()> {
        let id = self.file_id.expect("file present until finished");
        let block = &self.block;
        self.ctx
            .with_block_write(id, self.next_block, true, |dst| dst.copy_from_slice(block))?;
        self.next_block += 1;
        self.in_block = 0;
        Ok(())
    }
}

impl<T: Record> Drop for TupleWriter<'_, T> {
    fn drop(&mut self) {
        if let Some(id) = self.file_id.take() {
            // Already failing on some other error; a failed delete adds
            // nothing the caller could act on.
            let _ = self.ctx.delete_raw_file(id);
        }
    }
}

/// Sequentially reads a record file, one block at a time.
///
/// The reader keeps one block of local buffer (the "input block" of the EM
/// model) and supports single-record look-ahead via [`peek`](TupleReader::peek),
/// which is what the multiway merges of the sort and of MergeSweep need.
#[derive(Debug)]
pub struct TupleReader<'a, T: Record> {
    ctx: &'a EmContext,
    file_id: crate::FileId,
    num_records: u64,
    per_block: usize,
    pos: u64,
    block: Vec<u8>,
    loaded_block: Option<u64>,
    peeked: Option<T>,
}

impl<'a, T: Record> TupleReader<'a, T> {
    pub(crate) fn new(ctx: &'a EmContext, file: &TupleFile<T>) -> Self {
        let block_size = ctx.config().block_size;
        TupleReader {
            ctx,
            file_id: file.id,
            num_records: file.num_records,
            per_block: block_size / T::SIZE,
            pos: 0,
            block: vec![0u8; block_size],
            loaded_block: None,
            peeked: None,
        }
    }

    /// Total number of records in the file being read.
    pub fn len(&self) -> u64 {
        self.num_records
    }

    /// `true` when the underlying file has no records.
    pub fn is_empty(&self) -> bool {
        self.num_records == 0
    }

    /// Number of records not yet returned.
    pub fn remaining(&self) -> u64 {
        self.num_records - self.pos + u64::from(self.peeked.is_some())
    }

    /// Returns the next record without consuming it.
    pub fn peek(&mut self) -> Result<Option<&T>> {
        if self.peeked.is_none() {
            self.peeked = self.fetch()?;
        }
        Ok(self.peeked.as_ref())
    }

    /// Returns and consumes the next record, or `None` at end of file.
    pub fn next_record(&mut self) -> Result<Option<T>> {
        if let Some(rec) = self.peeked.take() {
            return Ok(Some(rec));
        }
        self.fetch()
    }

    fn fetch(&mut self) -> Result<Option<T>> {
        if self.pos >= self.num_records {
            return Ok(None);
        }
        let block_idx = self.pos / self.per_block as u64;
        let in_block = (self.pos % self.per_block as u64) as usize;
        if self.loaded_block != Some(block_idx) {
            let dst = &mut self.block;
            self.ctx
                .with_block_read(self.file_id, block_idx, |src| dst.copy_from_slice(src))?;
            self.loaded_block = Some(block_idx);
        }
        let at = in_block * T::SIZE;
        let rec = T::decode(&self.block[at..at + T::SIZE]);
        self.pos += 1;
        Ok(Some(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmConfig;

    fn ctx() -> EmContext {
        EmContext::new(EmConfig::new(64, 256).unwrap())
    }

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let ctx = ctx();
        let mut w = ctx.create_writer::<u64>().unwrap();
        for i in 0..1000u64 {
            w.push(&i).unwrap();
        }
        assert_eq!(w.len(), 1000);
        let file = w.finish().unwrap();
        assert_eq!(file.len(), 1000);

        let mut r = ctx.open_reader(&file);
        assert_eq!(r.len(), 1000);
        let mut back = Vec::new();
        while let Some(v) = r.next_record().unwrap() {
            back.push(v);
        }
        assert_eq!(back, (0..1000u64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_file() {
        let ctx = ctx();
        let w = ctx.create_writer::<u64>().unwrap();
        assert!(w.is_empty());
        let file = w.finish().unwrap();
        assert!(file.is_empty());
        let mut r = ctx.open_reader(&file);
        assert!(r.is_empty());
        assert_eq!(r.next_record().unwrap(), None);
        assert_eq!(r.peek().unwrap(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let ctx = ctx();
        let file = ctx.write_all(&[10u64, 20, 30]).unwrap();
        let mut r = ctx.open_reader(&file);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.peek().unwrap(), Some(&10));
        assert_eq!(r.peek().unwrap(), Some(&10));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.next_record().unwrap(), Some(10));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.next_record().unwrap(), Some(20));
        assert_eq!(r.peek().unwrap(), Some(&30));
        assert_eq!(r.next_record().unwrap(), Some(30));
        assert_eq!(r.next_record().unwrap(), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn extend_and_partial_blocks() {
        let ctx = ctx();
        let mut w = ctx.create_writer::<u64>().unwrap();
        w.extend(0..13u64).unwrap(); // 64-byte blocks hold 8 records
        let file = w.finish().unwrap();
        let back = ctx.read_all(&file).unwrap();
        assert_eq!(back.len(), 13);
        assert_eq!(back[12], 12);
    }

    #[test]
    fn dropping_an_unfinished_writer_deletes_its_file() {
        let ctx = ctx();
        let kept = ctx.write_all(&[1u64, 2, 3]).unwrap();
        ctx.flush_all().unwrap();
        let (files, blocks) = (ctx.num_files(), ctx.disk_blocks());
        let mut w = ctx.create_writer::<u64>().unwrap();
        w.extend(0..20u64).unwrap(); // 8 records per block: two spilled
        ctx.flush_all().unwrap(); // put the spilled blocks on the device
        assert_eq!(ctx.num_files(), files + 1);
        assert!(ctx.disk_blocks() > blocks);
        drop(w);
        assert_eq!(ctx.num_files(), files);
        assert_eq!(ctx.disk_blocks(), blocks);
        assert_eq!(ctx.read_all(&kept).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn oversized_records_are_rejected() {
        #[derive(Clone)]
        struct Big;
        impl Record for Big {
            const SIZE: usize = 1000;
            fn encode(&self, _: &mut [u8]) {}
            fn decode(_: &[u8]) -> Self {
                Big
            }
        }
        let ctx = ctx();
        assert!(matches!(
            ctx.create_writer::<Big>(),
            Err(EmError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn sequential_scan_costs_linear_io() {
        // 8 records per 64-byte block, buffer of 4 blocks, 64 blocks of data.
        let ctx = EmContext::new(EmConfig::new(64, 256).unwrap());
        let data: Vec<u64> = (0..512).collect();
        let file = ctx.write_all(&data).unwrap();
        ctx.reset_stats();
        let back = ctx.read_all(&file).unwrap();
        assert_eq!(back.len(), 512);
        let stats = ctx.stats();
        // A scan of 64 blocks through a 4-block pool: at least 60 must come
        // from disk, and no more than 64 reads plus a few eviction writes.
        assert!(stats.reads >= 60, "reads = {}", stats.reads);
        assert!(stats.reads <= 64, "reads = {}", stats.reads);
    }
}
