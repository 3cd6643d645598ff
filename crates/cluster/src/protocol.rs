//! The cluster wire protocol: request/reply messages and their hand-rolled
//! binary encoding.
//!
//! A cluster query is answered by a **two-round stateless protocol** that
//! runs the phases of the sharded sweep ([`maxrs_core::shard`]):
//!
//! 1. [`Request::Distribute`] — every engaged server crops its hosted source
//!    shards' rectangles against the global slab partition of the pass and
//!    replies with the span-event contributions plus the end pieces whose
//!    owner slab lives on *another* server.
//! 2. [`Request::Solve`] — the coordinator routes those exported pieces to
//!    the servers hosting the owner shards; each server re-derives its local
//!    pieces (the scan is one cheap `O(N_s/B)` pass), interleaves local and
//!    imported pieces in global source order, runs the ordinary per-slab
//!    recursion, and replies with the resulting slab tuples.
//!
//! Servers keep **no per-query state** between the two rounds, so retries,
//! interleaved queries from several coordinators, and failover need no
//! session bookkeeping.  Top-k suppression rounds stay stateless the same
//! way: every request carries the list of already-chosen rectangles
//! ([`PassSpec::suppressed`]) and servers skip the objects inside them in
//! every scan of the request.  A round after the first sweeps only the
//! y-band its predecessor's pick can change ([`PassSpec::band`]; see
//! [`maxrs_core::batch`]): servers crop only the rectangles meeting it, and
//! the coordinator splices the merged band into the previous round's
//! slab-file on its own device.
//!
//! The encoding is length-prefixed little-endian, reusing the exact on-disk
//! [`Record`] codecs for records, so a record crosses the wire bit-identical
//! to how it rests on a block device.  No serialization dependency is
//! involved.

use maxrs_core::{ObjectRecord, RectRecord, SlabTuple, SpanEvent};
use maxrs_em::{codec, IoSnapshot, Record};
use maxrs_geometry::{Interval, Point, Rect, RectSize};

/// Hard cap on any decoded collection: larger counts are rejected as
/// malformed before allocation.
const MAX_COUNT: usize = 1 << 28;

/// One `(size, weight_scale, root)` sweep pass over the cluster, fully
/// describing the global slab partition so every server derives the same
/// geometry without further coordination.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSpec {
    /// Query rectangle extent.
    pub size: RectSize,
    /// `1.0` for MaxRS-style passes, `-1.0` for the weight-negated MinRS
    /// pass.
    pub weight_scale: f64,
    /// Root slab of the pass (unbounded except for MinRS).
    pub root: Interval,
    /// Boundaries of the clipped global partition (`m + 1` values for `m`
    /// global slabs).
    pub bounds: Vec<f64>,
    /// Owner shard of each global slab (`m` values).
    pub owners: Vec<u32>,
    /// Engaged source shards, ascending.
    pub engaged: Vec<u32>,
    /// Top-k suppression: objects strictly inside any of these rectangles
    /// are filtered out of every scan of the pass.
    pub suppressed: Vec<Rect>,
    /// The closed y-band of the pass: only rectangles meeting it are swept
    /// ([`Interval::UNBOUNDED`] except for top-k rounds after the first).
    pub band: Interval,
}

/// A batch of rectangle pieces cropped from one source shard into one
/// global slab, in source-scan order.
#[derive(Debug, Clone, PartialEq)]
pub struct PieceSet {
    /// Source shard the pieces were cropped from.
    pub source: u32,
    /// Global slab index the pieces belong to.
    pub slab: u32,
    /// The pieces, in the source file's scan order.
    pub rects: Vec<RectRecord>,
}

/// One hosted shard as reported by [`Request::Describe`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Global shard id.
    pub shard: u32,
    /// Objects in the shard.
    pub len: u64,
    /// Block transfers spent preparing the shard.
    pub prepare_io: IoSnapshot,
}

/// A sub-query sent to one [`ShardServer`](crate::ShardServer).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Topology handshake: boundaries, hosted shards, storage backend.
    Describe,
    /// Round 1 of a sweep pass: crop and export (see the module docs).
    Distribute(PassSpec),
    /// Round 2 of a sweep pass: solve the locally-owned global slabs.
    Solve {
        /// The same pass as the preceding [`Request::Distribute`].
        pass: PassSpec,
        /// Pieces exported by *other* servers whose owner slab is hosted
        /// here.
        imported: Vec<PieceSet>,
    },
    /// Canonicalization support: the next arrangement breakpoint strictly
    /// after `after_x` over the hosted shards among `engaged`.
    Breakpoint {
        /// Query rectangle extent.
        size: RectSize,
        /// Root slab of the pass being canonicalized.
        root: Interval,
        /// Scan for breakpoints strictly greater than this.
        after_x: f64,
        /// Top-k suppression in effect for the pass.
        suppressed: Vec<Rect>,
        /// Shards whose rectangles can reach `root`, ascending, as in
        /// [`PassSpec::engaged`]; no other shard is scanned.
        engaged: Vec<u32>,
    },
    /// ApproxMaxCRS refinement: per-shard candidate weight sums under the
    /// open disk of the given diameter.
    Evaluate {
        /// Candidate circle centers.
        candidates: Vec<Point>,
        /// Circle diameter.
        diameter: f64,
    },
    /// Fetch every hosted shard's object records (degenerate MinRS and
    /// defensive fallbacks delegate to in-memory code on the coordinator).
    FetchObjects,
}

/// A [`ShardServer`](crate::ShardServer)'s reply.  Every data-carrying
/// variant reports the logical block transfers the request cost on the
/// server ([`Response::io`]), keeping the paper's I/O accounting exact
/// across the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Describe`].
    Described {
        /// The server's view of the global shard boundaries.
        boundaries: Vec<f64>,
        /// Storage backend name (empty when the server hosts no shards).
        backend: String,
        /// The shards hosted by this server.
        shards: Vec<ShardInfo>,
    },
    /// Reply to [`Request::Distribute`].
    Distributed {
        /// Span events per engaged source shard, in scan order.
        spans: Vec<(u32, Vec<SpanEvent>)>,
        /// Pieces destined for slabs owned elsewhere.
        exported: Vec<PieceSet>,
        /// Server-side block transfers of this request.
        io: IoSnapshot,
    },
    /// Reply to [`Request::Solve`].
    Solved {
        /// Slab tuples per locally-owned global slab.
        slabs: Vec<(u32, Vec<SlabTuple>)>,
        /// Server-side block transfers of this request.
        io: IoSnapshot,
    },
    /// Reply to [`Request::Breakpoint`].
    Breakpoint {
        /// Minimum breakpoint over the hosted shards (`+∞` when none).
        hi: f64,
        /// Server-side block transfers of this request.
        io: IoSnapshot,
    },
    /// Reply to [`Request::Evaluate`].
    Evaluated {
        /// Per hosted shard: the candidates' weight sums.
        sums: Vec<(u32, Vec<f64>)>,
        /// Server-side block transfers of this request.
        io: IoSnapshot,
    },
    /// Reply to [`Request::FetchObjects`].
    Objects {
        /// Per hosted shard: its object records in file order.
        objects: Vec<(u32, Vec<ObjectRecord>)>,
        /// Server-side block transfers of this request.
        io: IoSnapshot,
    },
    /// The request failed on the server.  Deterministic — the coordinator
    /// does not retry these.
    Error {
        /// The server's error message.
        message: String,
    },
}

impl Response {
    /// The server-side I/O carried by this reply (zero for handshake and
    /// error replies).
    pub fn io(&self) -> IoSnapshot {
        match self {
            Response::Distributed { io, .. }
            | Response::Solved { io, .. }
            | Response::Breakpoint { io, .. }
            | Response::Evaluated { io, .. }
            | Response::Objects { io, .. } => *io,
            Response::Described { .. } | Response::Error { .. } => IoSnapshot::default(),
        }
    }

    /// Stamps the server-side I/O onto a freshly built reply.
    pub(crate) fn with_io(mut self, stamped: IoSnapshot) -> Self {
        match &mut self {
            Response::Distributed { io, .. }
            | Response::Solved { io, .. }
            | Response::Breakpoint { io, .. }
            | Response::Evaluated { io, .. }
            | Response::Objects { io, .. } => *io = stamped,
            Response::Described { .. } | Response::Error { .. } => {}
        }
        self
    }
}

/// Decoding failure: the buffer is not a well-formed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message: {}", self.0)
    }
}

impl std::error::Error for WireError {}

type WireResult<T> = std::result::Result<T, WireError>;

// ---- primitive writer/reader ------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        let at = self.grow(4);
        codec::put_u32(&mut self.buf, at, v);
    }
    fn u64(&mut self, v: u64) {
        let at = self.grow(8);
        codec::put_u64(&mut self.buf, at, v);
    }
    fn f64(&mut self, v: f64) {
        let at = self.grow(8);
        codec::put_f64(&mut self.buf, at, v);
    }
    fn grow(&mut self, n: usize) -> usize {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        at
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn record<T: Record>(&mut self, r: &T) {
        let at = self.grow(T::SIZE);
        r.encode(&mut self.buf[at..at + T::SIZE]);
    }
    fn records<T: Record>(&mut self, rs: &[T]) {
        self.u32(rs.len() as u32);
        for r in rs {
            self.record(r);
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
    fn interval(&mut self, v: Interval) {
        self.f64(v.lo);
        self.f64(v.hi);
    }
    fn rect(&mut self, v: &Rect) {
        self.f64(v.x_lo);
        self.f64(v.x_hi);
        self.f64(v.y_lo);
        self.f64(v.y_hi);
    }
    fn rects(&mut self, vs: &[Rect]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.rect(v);
        }
    }
    fn size(&mut self, v: RectSize) {
        self.f64(v.width);
        self.f64(v.height);
    }
    fn point(&mut self, v: Point) {
        self.f64(v.x);
        self.f64(v.y);
    }
    fn io(&mut self, v: IoSnapshot) {
        self.u64(v.reads);
        self.u64(v.writes);
    }
    fn pass(&mut self, p: &PassSpec) {
        self.size(p.size);
        self.f64(p.weight_scale);
        self.interval(p.root);
        self.f64s(&p.bounds);
        self.u32s(&p.owners);
        self.u32s(&p.engaged);
        self.rects(&p.suppressed);
        self.interval(p.band);
    }
    fn piece_sets(&mut self, ps: &[PieceSet]) {
        self.u32(ps.len() as u32);
        for p in ps {
            self.u32(p.source);
            self.u32(p.slab);
            self.records(&p.rects);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated message: wanted {n} more bytes")))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> WireResult<u32> {
        Ok(codec::get_u32(self.take(4)?, 0))
    }
    fn u64(&mut self) -> WireResult<u64> {
        Ok(codec::get_u64(self.take(8)?, 0))
    }
    fn f64(&mut self) -> WireResult<f64> {
        Ok(codec::get_f64(self.take(8)?, 0))
    }
    /// A collection count, bounds-checked against the remaining bytes so a
    /// malformed header cannot drive a huge allocation.
    fn count(&mut self, elem_size: usize) -> WireResult<usize> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.at;
        if n > MAX_COUNT || n.saturating_mul(elem_size.max(1)) > remaining {
            return Err(WireError(format!("implausible collection count {n}")));
        }
        Ok(n)
    }
    fn str(&mut self) -> WireResult<String> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|e| WireError(format!("invalid utf-8 string: {e}")))
    }
    fn record<T: Record>(&mut self) -> WireResult<T> {
        Ok(T::decode(self.take(T::SIZE)?))
    }
    fn records<T: Record>(&mut self) -> WireResult<Vec<T>> {
        let n = self.count(T::SIZE)?;
        (0..n).map(|_| self.record()).collect()
    }
    fn f64s(&mut self) -> WireResult<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn u32s(&mut self) -> WireResult<Vec<u32>> {
        let n = self.count(4)?;
        (0..n).map(|_| self.u32()).collect()
    }
    fn interval(&mut self) -> WireResult<Interval> {
        Ok(Interval {
            lo: self.f64()?,
            hi: self.f64()?,
        })
    }
    fn rect(&mut self) -> WireResult<Rect> {
        Ok(Rect {
            x_lo: self.f64()?,
            x_hi: self.f64()?,
            y_lo: self.f64()?,
            y_hi: self.f64()?,
        })
    }
    fn rects(&mut self) -> WireResult<Vec<Rect>> {
        let n = self.count(32)?;
        (0..n).map(|_| self.rect()).collect()
    }
    fn size(&mut self) -> WireResult<RectSize> {
        Ok(RectSize {
            width: self.f64()?,
            height: self.f64()?,
        })
    }
    fn point(&mut self) -> WireResult<Point> {
        Ok(Point {
            x: self.f64()?,
            y: self.f64()?,
        })
    }
    fn io(&mut self) -> WireResult<IoSnapshot> {
        Ok(IoSnapshot {
            reads: self.u64()?,
            writes: self.u64()?,
        })
    }
    fn pass(&mut self) -> WireResult<PassSpec> {
        Ok(PassSpec {
            size: self.size()?,
            weight_scale: self.f64()?,
            root: self.interval()?,
            bounds: self.f64s()?,
            owners: self.u32s()?,
            engaged: self.u32s()?,
            suppressed: self.rects()?,
            band: self.interval()?,
        })
    }
    fn piece_sets(&mut self) -> WireResult<Vec<PieceSet>> {
        let n = self.count(12)?;
        (0..n)
            .map(|_| {
                Ok(PieceSet {
                    source: self.u32()?,
                    slab: self.u32()?,
                    rects: self.records()?,
                })
            })
            .collect()
    }
    fn finish(self) -> WireResult<()> {
        if self.at != self.buf.len() {
            return Err(WireError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

// ---- message encoding -------------------------------------------------------

const REQ_DESCRIBE: u8 = 0;
const REQ_DISTRIBUTE: u8 = 1;
const REQ_SOLVE: u8 = 2;
const REQ_BREAKPOINT: u8 = 3;
const REQ_EVALUATE: u8 = 4;
const REQ_FETCH_OBJECTS: u8 = 5;

impl Request {
    /// Encodes the request into a self-contained byte message (framing is
    /// the transport's job).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Request::Describe => w.u8(REQ_DESCRIBE),
            Request::Distribute(pass) => {
                w.u8(REQ_DISTRIBUTE);
                w.pass(pass);
            }
            Request::Solve { pass, imported } => {
                w.u8(REQ_SOLVE);
                w.pass(pass);
                w.piece_sets(imported);
            }
            Request::Breakpoint {
                size,
                root,
                after_x,
                suppressed,
                engaged,
            } => {
                w.u8(REQ_BREAKPOINT);
                w.size(*size);
                w.interval(*root);
                w.f64(*after_x);
                w.rects(suppressed);
                w.u32s(engaged);
            }
            Request::Evaluate {
                candidates,
                diameter,
            } => {
                w.u8(REQ_EVALUATE);
                w.u32(candidates.len() as u32);
                for &c in candidates {
                    w.point(c);
                }
                w.f64(*diameter);
            }
            Request::FetchObjects => w.u8(REQ_FETCH_OBJECTS),
        }
        w.buf
    }

    /// Decodes a request message.
    pub fn decode(buf: &[u8]) -> WireResult<Request> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            REQ_DESCRIBE => Request::Describe,
            REQ_DISTRIBUTE => Request::Distribute(r.pass()?),
            REQ_SOLVE => Request::Solve {
                pass: r.pass()?,
                imported: r.piece_sets()?,
            },
            REQ_BREAKPOINT => Request::Breakpoint {
                size: r.size()?,
                root: r.interval()?,
                after_x: r.f64()?,
                suppressed: r.rects()?,
                engaged: r.u32s()?,
            },
            REQ_EVALUATE => {
                let n = r.count(16)?;
                let candidates = (0..n).map(|_| r.point()).collect::<WireResult<Vec<_>>>()?;
                Request::Evaluate {
                    candidates,
                    diameter: r.f64()?,
                }
            }
            REQ_FETCH_OBJECTS => Request::FetchObjects,
            tag => return Err(WireError(format!("unknown request tag {tag}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

const RESP_DESCRIBED: u8 = 0;
const RESP_DISTRIBUTED: u8 = 1;
const RESP_SOLVED: u8 = 2;
const RESP_BREAKPOINT: u8 = 3;
const RESP_EVALUATED: u8 = 4;
const RESP_OBJECTS: u8 = 5;
const RESP_ERROR: u8 = 6;

impl Response {
    /// Encodes the reply into a self-contained byte message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match self {
            Response::Described {
                boundaries,
                backend,
                shards,
            } => {
                w.u8(RESP_DESCRIBED);
                w.f64s(boundaries);
                w.str(backend);
                w.u32(shards.len() as u32);
                for s in shards {
                    w.u32(s.shard);
                    w.u64(s.len);
                    w.io(s.prepare_io);
                }
            }
            Response::Distributed {
                spans,
                exported,
                io,
            } => {
                w.u8(RESP_DISTRIBUTED);
                w.u32(spans.len() as u32);
                for (source, events) in spans {
                    w.u32(*source);
                    w.records(events);
                }
                w.piece_sets(exported);
                w.io(*io);
            }
            Response::Solved { slabs, io } => {
                w.u8(RESP_SOLVED);
                w.u32(slabs.len() as u32);
                for (slab, tuples) in slabs {
                    w.u32(*slab);
                    w.records(tuples);
                }
                w.io(*io);
            }
            Response::Breakpoint { hi, io } => {
                w.u8(RESP_BREAKPOINT);
                w.f64(*hi);
                w.io(*io);
            }
            Response::Evaluated { sums, io } => {
                w.u8(RESP_EVALUATED);
                w.u32(sums.len() as u32);
                for (shard, s) in sums {
                    w.u32(*shard);
                    w.f64s(s);
                }
                w.io(*io);
            }
            Response::Objects { objects, io } => {
                w.u8(RESP_OBJECTS);
                w.u32(objects.len() as u32);
                for (shard, records) in objects {
                    w.u32(*shard);
                    w.records(records);
                }
                w.io(*io);
            }
            Response::Error { message } => {
                w.u8(RESP_ERROR);
                w.str(message);
            }
        }
        w.buf
    }

    /// Decodes a reply message.
    pub fn decode(buf: &[u8]) -> WireResult<Response> {
        let mut r = Reader::new(buf);
        let resp = match r.u8()? {
            RESP_DESCRIBED => {
                let boundaries = r.f64s()?;
                let backend = r.str()?;
                let n = r.count(28)?;
                let shards = (0..n)
                    .map(|_| {
                        Ok(ShardInfo {
                            shard: r.u32()?,
                            len: r.u64()?,
                            prepare_io: r.io()?,
                        })
                    })
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Described {
                    boundaries,
                    backend,
                    shards,
                }
            }
            RESP_DISTRIBUTED => {
                let n = r.count(8)?;
                let spans = (0..n)
                    .map(|_| Ok((r.u32()?, r.records::<SpanEvent>()?)))
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Distributed {
                    spans,
                    exported: r.piece_sets()?,
                    io: r.io()?,
                }
            }
            RESP_SOLVED => {
                let n = r.count(8)?;
                let slabs = (0..n)
                    .map(|_| Ok((r.u32()?, r.records::<SlabTuple>()?)))
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Solved { slabs, io: r.io()? }
            }
            RESP_BREAKPOINT => Response::Breakpoint {
                hi: r.f64()?,
                io: r.io()?,
            },
            RESP_EVALUATED => {
                let n = r.count(8)?;
                let sums = (0..n)
                    .map(|_| Ok((r.u32()?, r.f64s()?)))
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Evaluated { sums, io: r.io()? }
            }
            RESP_OBJECTS => {
                let n = r.count(8)?;
                let objects = (0..n)
                    .map(|_| Ok((r.u32()?, r.records::<ObjectRecord>()?)))
                    .collect::<WireResult<Vec<_>>>()?;
                Response::Objects {
                    objects,
                    io: r.io()?,
                }
            }
            RESP_ERROR => Response::Error { message: r.str()? },
            tag => return Err(WireError(format!("unknown response tag {tag}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    fn sample_pass() -> PassSpec {
        PassSpec {
            size: RectSize::new(3.0, 4.5),
            weight_scale: -1.0,
            root: Interval::new(f64::NEG_INFINITY, 7.25),
            bounds: vec![f64::NEG_INFINITY, -1.5, 0.0, 7.25],
            owners: vec![0, 1, 2],
            engaged: vec![0, 2, 3],
            suppressed: vec![Rect::new(0.0, 1.0, -2.0, 3.0)],
            band: Interval::new(-4.5, 7.5),
        }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Describe);
        roundtrip_request(Request::FetchObjects);
        roundtrip_request(Request::Distribute(sample_pass()));
        roundtrip_request(Request::Distribute(PassSpec {
            band: Interval::UNBOUNDED,
            ..sample_pass()
        }));
        roundtrip_request(Request::Solve {
            pass: sample_pass(),
            imported: vec![PieceSet {
                source: 3,
                slab: 1,
                rects: vec![RectRecord::new(Rect::new(-1.0, 0.5, 2.0, 4.0), 2.5)],
            }],
        });
        roundtrip_request(Request::Breakpoint {
            size: RectSize::square(2.0),
            root: Interval::UNBOUNDED,
            after_x: -3.75,
            suppressed: vec![],
            engaged: vec![1, 2],
        });
        roundtrip_request(Request::Evaluate {
            candidates: vec![Point::new(1.0, 2.0), Point::new(-0.5, 0.25)],
            diameter: 4.0,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Described {
            boundaries: vec![0.0, 10.0],
            backend: "sim".to_string(),
            shards: vec![ShardInfo {
                shard: 2,
                len: 1234,
                prepare_io: IoSnapshot {
                    reads: 10,
                    writes: 20,
                },
            }],
        });
        roundtrip_response(Response::Distributed {
            spans: vec![(1, SpanEvent::pair(0.5, 2.5, 3.0, 1, 4).to_vec())],
            exported: vec![PieceSet {
                source: 1,
                slab: 0,
                rects: vec![RectRecord::new(Rect::new(0.0, 1.0, 0.0, 1.0), 1.0)],
            }],
            io: IoSnapshot {
                reads: 7,
                writes: 0,
            },
        });
        roundtrip_response(Response::Solved {
            slabs: vec![
                (0, vec![SlabTuple::new(1.0, f64::NEG_INFINITY, 2.0, 5.0)]),
                (3, vec![]),
            ],
            io: IoSnapshot {
                reads: 1,
                writes: 2,
            },
        });
        roundtrip_response(Response::Breakpoint {
            hi: f64::INFINITY,
            io: IoSnapshot::default(),
        });
        roundtrip_response(Response::Evaluated {
            sums: vec![(0, vec![1.0, 2.0, 3.0, 4.0, 5.0])],
            io: IoSnapshot::default(),
        });
        roundtrip_response(Response::Objects {
            objects: vec![(1, vec![ObjectRecord::new(1.0, 2.0, 3.0)])],
            io: IoSnapshot::default(),
        });
        roundtrip_response(Response::Error {
            message: "boom".to_string(),
        });
    }

    #[test]
    fn malformed_messages_are_rejected_without_allocation() {
        // Unknown tag.
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        // Truncated body.
        let mut bytes = Request::Distribute(sample_pass()).encode();
        bytes.truncate(bytes.len() - 3);
        assert!(Request::decode(&bytes).is_err());
        // Trailing garbage.
        let mut bytes = Request::Describe.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // A count header claiming far more elements than the buffer holds.
        let mut w = Vec::new();
        w.push(5); // REQ_FETCH_OBJECTS is 5; craft an Evaluate instead:
        w.clear();
        w.push(4); // REQ_EVALUATE
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&w).is_err());
    }
}
