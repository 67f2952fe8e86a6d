package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	quantumdb "repro"
	"repro/internal/value"
)

// This file is the binary wire protocol: length-prefixed CRC-framed
// request/response encoding, negotiated per connection by a magic
// preamble (handle peeks; absent magic falls through to JSON lines).
// The value payloads reuse the WAL's alloc-free binary machinery
// (value.AppendBinary / value.DecodeBinary), so a row travels in the
// same form the log stores it.
//
// Frame layout (all integers little-endian unless a field says
// otherwise; values use their own big-endian/uvarint encoding):
//
//	+----------+------------------------------+----------+
//	| len u32  | body (len bytes)             | crc u32  |
//	+----------+------------------------------+----------+
//	body = | req id u64 | op code u8 | payload |
//
// crc is CRC-32C (Castagnoli) over the body, the same polynomial the
// WAL frames with. The request ID is chosen by the client and echoed
// verbatim on the response frame — the pipelining handle: responses
// complete out of order and the ID is how a pipelined client matches
// them back to calls. The payload is the op-specific field encoding
// (appendRequest/appendResponse below).

// frameMagic opens a binary-protocol connection: the client sends it
// immediately after connect, the server echoes it as the accept. A
// JSON-lines client's first byte is '{' (or whitespace), never 'Q', so
// the server can sniff the first 4 bytes and fall back transparently.
// The last byte is the protocol version: 2 since read results travel as
// one columnar row set, which a version-1 peer cannot parse. A preamble
// with the prefix but another version is refused in words (handle), not
// misread as JSON.
const (
	magicPrefix = "QDB"
	frameMagic  = magicPrefix + "\x02"
)

// maxFrameBody bounds one frame's declared body length; a length field
// above it is rejected before any allocation. Sized for repl.bootstrap
// images, far above any request.
const maxFrameBody = 64 << 20

// frameChunk is the read-granularity for frame bodies: a corrupt length
// field can claim up to maxFrameBody, so the body is read (and the
// buffer grown) in bounded steps — a truncated stream errors out after
// at most one chunk of over-allocation instead of len bytes.
const frameChunk = 64 << 10

// frameHeader is the fixed prefix of a frame body: 8-byte request ID
// plus 1-byte op code.
const frameHeader = 9

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// opCodes maps protocol verbs to their wire codes; 0 is reserved as
// invalid. Codes are append-only — reusing one would let an old client
// misread a new server.
var opCodes = map[string]byte{
	"create": 1, "exec": 2, "txn": 3, "etxn": 4, "sql": 5,
	"read": 6, "snapread": 7, "preview": 8, "ground": 9,
	"groundall": 10, "pending": 11, "stats": 12, "ping": 13,
	"lag": 14, "repl.bootstrap": 15, "repl.pull": 16,
	"repl.fence": 17, "promote": 18, "batch": 19,
}

var opNames = func() map[byte]string {
	m := make(map[byte]string, len(opCodes))
	for name, code := range opCodes {
		m[code] = name
	}
	return m
}()

// beginFrame starts a frame in dst: length placeholder, request ID, op
// code. The payload is appended by the caller, then finishFrame seals
// it. dst should be a reused per-connection buffer (sliced to zero).
func beginFrame(dst []byte, id uint64, op byte) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, op)
}

// finishFrame back-patches the length prefix and appends the CRC.
func finishFrame(dst []byte) []byte {
	body := dst[4:]
	binary.LittleEndian.PutUint32(dst[:4], uint32(len(body)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, frameCRC))
}

// readFrame reads one frame from br into buf (reused across calls),
// returning the request ID, op code, and payload. The payload aliases
// the returned buffer — callers must finish decoding (which copies out
// strings and byte fields) before the next readFrame on the same
// buffer. Corrupt lengths, truncated frames, and CRC mismatches all
// error without panicking and without allocating past the declared
// (capped) size.
func readFrame(br *bufio.Reader, buf []byte) (id uint64, op byte, payload, nbuf []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < frameHeader || n > maxFrameBody {
		return 0, 0, nil, buf, fmt.Errorf("server: frame body length %d out of range", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > frameChunk {
			chunk = frameChunk
		}
		off := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(br, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, buf, err
		}
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, buf, err
	}
	if got, want := crc32.Checksum(buf, frameCRC), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, 0, nil, buf, fmt.Errorf("server: frame CRC mismatch (got %08x want %08x)", got, want)
	}
	id = binary.LittleEndian.Uint64(buf[:8])
	return id, buf[8], buf[frameHeader:], buf, nil
}

// wireBuf is a bounds-checked decode cursor over one frame payload.
type wireBuf struct{ b []byte }

func (r *wireBuf) remaining() int { return len(r.b) }

func (r *wireBuf) uvarint() (uint64, error) {
	n, w := binary.Uvarint(r.b)
	if w <= 0 {
		return 0, fmt.Errorf("server: frame decode: bad uvarint")
	}
	r.b = r.b[w:]
	return n, nil
}

func (r *wireBuf) byteVal() (byte, error) {
	if len(r.b) == 0 {
		return 0, fmt.Errorf("server: frame decode: short buffer")
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

// str reads a uvarint-prefixed string. The returned string is a copy,
// so it survives frame-buffer reuse.
func (r *wireBuf) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.b)) {
		return "", fmt.Errorf("server: frame decode: string length %d exceeds payload", n)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// bytes reads a uvarint-prefixed byte field, copied out of the frame
// buffer. A zero length decodes to nil.
func (r *wireBuf) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("server: frame decode: byte field length %d exceeds payload", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out, nil
}

// count reads a uvarint element count and validates it against the
// bytes left, each element costing at least min bytes — the allocation
// guard that keeps a corrupt count from provoking a giant make().
func (r *wireBuf) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(r.b)/min) {
		return 0, fmt.Errorf("server: frame decode: count %d exceeds payload", n)
	}
	return int(n), nil
}

// quoted consumes one encoded value and appends its quoted text form
// (value.Value.Quoted) to dst, without materializing the value.
func (r *wireBuf) quoted(dst []byte) ([]byte, error) {
	dst, n, err := value.QuoteBinary(dst, r.b)
	if err != nil {
		return dst, fmt.Errorf("server: frame decode: %w", err)
	}
	r.b = r.b[n:]
	return dst, nil
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendWireBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendRequest encodes req's fields (minus Op, which rides in the
// frame header as the op code) onto dst. Field order is fixed and
// append-only; absent fields encode as zero values, so the payload of
// a ping is a handful of zero bytes, not a schema.
func appendRequest(dst []byte, req *Request) []byte {
	dst = appendWireString(dst, req.Txn)
	dst = appendWireString(dst, req.Query)
	dst = appendWireString(dst, req.Facts)
	dst = appendWireString(dst, req.Tag)
	dst = appendWireString(dst, req.Partner)
	dst = appendWireString(dst, req.Addr)
	dst = binary.AppendUvarint(dst, uint64(req.ID))
	dst = binary.AppendUvarint(dst, req.After)
	dst = binary.AppendUvarint(dst, req.Term)
	dst = binary.AppendUvarint(dst, uint64(req.WaitMS))
	if req.Force {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	if t := req.Table; t != nil {
		dst = append(dst, 1)
		dst = appendWireString(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(len(t.Columns)))
		for _, c := range t.Columns {
			dst = appendWireString(dst, c)
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.Key)))
		for _, k := range t.Key {
			dst = binary.AppendUvarint(dst, uint64(k))
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.Indexes)))
		for _, idx := range t.Indexes {
			dst = binary.AppendUvarint(dst, uint64(len(idx)))
			for _, k := range idx {
				dst = binary.AppendUvarint(dst, uint64(k))
			}
		}
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Txns)))
	for _, t := range req.Txns {
		dst = appendWireString(dst, t)
	}
	return dst
}

// decodeRequest parses a frame payload into a Request. It never panics
// on corrupt input and bounds every allocation by the payload length.
func decodeRequest(op byte, payload []byte) (Request, error) {
	name, ok := opNames[op]
	if !ok {
		return Request{}, fmt.Errorf("server: frame decode: unknown op code %d", op)
	}
	req := Request{Op: name}
	r := wireBuf{payload}
	var err error
	if req.Txn, err = r.str(); err != nil {
		return Request{}, err
	}
	if req.Query, err = r.str(); err != nil {
		return Request{}, err
	}
	if req.Facts, err = r.str(); err != nil {
		return Request{}, err
	}
	if req.Tag, err = r.str(); err != nil {
		return Request{}, err
	}
	if req.Partner, err = r.str(); err != nil {
		return Request{}, err
	}
	if req.Addr, err = r.str(); err != nil {
		return Request{}, err
	}
	id, err := r.uvarint()
	if err != nil {
		return Request{}, err
	}
	req.ID = int64(id)
	if req.After, err = r.uvarint(); err != nil {
		return Request{}, err
	}
	if req.Term, err = r.uvarint(); err != nil {
		return Request{}, err
	}
	waitMS, err := r.uvarint()
	if err != nil {
		return Request{}, err
	}
	req.WaitMS = int64(waitMS)
	force, err := r.byteVal()
	if err != nil {
		return Request{}, err
	}
	req.Force = force != 0
	hasTable, err := r.byteVal()
	if err != nil {
		return Request{}, err
	}
	if hasTable != 0 {
		t := &TableSpec{}
		if t.Name, err = r.str(); err != nil {
			return Request{}, err
		}
		ncols, err := r.count(1)
		if err != nil {
			return Request{}, err
		}
		t.Columns = make([]string, ncols)
		for i := range t.Columns {
			if t.Columns[i], err = r.str(); err != nil {
				return Request{}, err
			}
		}
		nkey, err := r.count(1)
		if err != nil {
			return Request{}, err
		}
		if nkey > 0 {
			t.Key = make([]int, nkey)
			for i := range t.Key {
				k, err := r.uvarint()
				if err != nil {
					return Request{}, err
				}
				t.Key[i] = int(k)
			}
		}
		nidx, err := r.count(1)
		if err != nil {
			return Request{}, err
		}
		if nidx > 0 {
			t.Indexes = make([][]int, nidx)
			for i := range t.Indexes {
				n, err := r.count(1)
				if err != nil {
					return Request{}, err
				}
				t.Indexes[i] = make([]int, n)
				for j := range t.Indexes[i] {
					k, err := r.uvarint()
					if err != nil {
						return Request{}, err
					}
					t.Indexes[i][j] = int(k)
				}
			}
		}
		req.Table = t
	}
	ntxns, err := r.count(1)
	if err != nil {
		return Request{}, err
	}
	if ntxns > 0 {
		req.Txns = make([]string, ntxns)
		for i := range req.Txns {
			if req.Txns[i], err = r.str(); err != nil {
				return Request{}, err
			}
		}
	}
	return req, nil
}

// Response flag bits (first payload byte).
const (
	respOK       = 1 << 0
	respResync   = 1 << 1
	respGranted  = 1 << 2
	respRetry    = 1 << 3
	respStats    = 1 << 4
	respRedirect = 1 << 5
)

// appendResponse encodes resp onto dst. Row results are encoded from
// resp.rows, the engine's columnar row set, by appendRowSet — never from
// the JSON path's quoted-string maps. Stats, a rare diagnostic op, rides
// as a JSON sub-payload rather than earning its own schema.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	var flags byte
	if resp.OK {
		flags |= respOK
	}
	if resp.Resync {
		flags |= respResync
	}
	if resp.Granted {
		flags |= respGranted
	}
	if resp.Retry {
		flags |= respRetry
	}
	if resp.Stats != nil {
		flags |= respStats
	}
	if resp.Redirect != nil {
		flags |= respRedirect
	}
	dst = append(dst, flags)
	dst = appendWireString(dst, resp.Err)
	dst = binary.AppendUvarint(dst, uint64(resp.ID))
	dst = binary.AppendUvarint(dst, uint64(resp.Pending))
	dst = binary.AppendUvarint(dst, uint64(len(resp.IDs)))
	for _, id := range resp.IDs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Errs)))
	for _, e := range resp.Errs {
		dst = appendWireString(dst, e)
	}
	dst = binary.AppendUvarint(dst, resp.Seq)
	dst = binary.AppendUvarint(dst, resp.Applied)
	dst = binary.AppendUvarint(dst, resp.Lag)
	dst = binary.AppendUvarint(dst, resp.Term)
	if resp.Redirect != nil {
		dst = appendWireString(dst, resp.Redirect.Addr)
		dst = binary.AppendUvarint(dst, resp.Redirect.Term)
	}
	if resp.Stats != nil {
		js, err := json.Marshal(resp.Stats)
		if err != nil {
			return dst, err
		}
		dst = appendWireBytes(dst, js)
	}
	dst = appendWireBytes(dst, resp.Image)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Batches)))
	for _, b := range resp.Batches {
		dst = binary.AppendUvarint(dst, b.Seq)
		dst = binary.AppendUvarint(dst, b.Term)
		dst = binary.AppendUvarint(dst, uint64(len(b.Records)))
		for _, rec := range b.Records {
			dst = append(dst, rec.Type)
			dst = appendWireBytes(dst, rec.Payload)
		}
	}
	return appendRowSet(dst, resp.rows), nil
}

// wireUnbound stands in for the encoding of a cell whose variable the
// solution left unbound; it is no value kind byte.
const wireUnbound = 0xFF

// appendRowSet encodes a read result as
//
//	ncols | name... | nrows | value...
//
// column names once, then the nrows*ncols cells row-major, each through
// value.AppendBinary — the encoder the WAL uses for facts — or the
// wireUnbound byte. A nil row set (every op but the reads) is 0 | 0.
func appendRowSet(dst []byte, rs *quantumdb.RowSet) []byte {
	if rs == nil {
		return append(dst, 0, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rs.Cols)))
	for _, name := range rs.Cols {
		dst = appendWireString(dst, name)
	}
	dst = binary.AppendUvarint(dst, uint64(rs.N))
	for i, v := range rs.Vals {
		if rs.Unbound != nil && rs.Unbound[i] {
			dst = append(dst, wireUnbound)
		} else {
			dst = v.AppendBinary(dst)
		}
	}
	return dst
}

// decodeResponse parses a frame payload into a Response. Typed row
// values are materialized back into the quoted-string maps the JSON
// protocol carries (decodeRowSet), so callers above the transport see
// identical rows on either protocol.
func decodeResponse(payload []byte) (Response, error) {
	var resp Response
	r := wireBuf{payload}
	flags, err := r.byteVal()
	if err != nil {
		return Response{}, err
	}
	resp.OK = flags&respOK != 0
	resp.Resync = flags&respResync != 0
	resp.Granted = flags&respGranted != 0
	resp.Retry = flags&respRetry != 0
	if resp.Err, err = r.str(); err != nil {
		return Response{}, err
	}
	id, err := r.uvarint()
	if err != nil {
		return Response{}, err
	}
	resp.ID = int64(id)
	pending, err := r.uvarint()
	if err != nil {
		return Response{}, err
	}
	resp.Pending = int(pending)
	nids, err := r.count(1)
	if err != nil {
		return Response{}, err
	}
	if nids > 0 {
		resp.IDs = make([]int64, nids)
		for i := range resp.IDs {
			v, err := r.uvarint()
			if err != nil {
				return Response{}, err
			}
			resp.IDs[i] = int64(v)
		}
	}
	nerrs, err := r.count(1)
	if err != nil {
		return Response{}, err
	}
	if nerrs > 0 {
		resp.Errs = make([]string, nerrs)
		for i := range resp.Errs {
			if resp.Errs[i], err = r.str(); err != nil {
				return Response{}, err
			}
		}
	}
	if resp.Seq, err = r.uvarint(); err != nil {
		return Response{}, err
	}
	if resp.Applied, err = r.uvarint(); err != nil {
		return Response{}, err
	}
	if resp.Lag, err = r.uvarint(); err != nil {
		return Response{}, err
	}
	if resp.Term, err = r.uvarint(); err != nil {
		return Response{}, err
	}
	if flags&respRedirect != 0 {
		rd := &Redirect{}
		if rd.Addr, err = r.str(); err != nil {
			return Response{}, err
		}
		if rd.Term, err = r.uvarint(); err != nil {
			return Response{}, err
		}
		resp.Redirect = rd
	}
	if flags&respStats != 0 {
		js, err := r.bytes()
		if err != nil {
			return Response{}, err
		}
		st := &quantumdb.Stats{}
		if err := json.Unmarshal(js, st); err != nil {
			return Response{}, fmt.Errorf("server: frame decode: stats: %w", err)
		}
		resp.Stats = st
	}
	if resp.Image, err = r.bytes(); err != nil {
		return Response{}, err
	}
	nbatches, err := r.count(3)
	if err != nil {
		return Response{}, err
	}
	if nbatches > 0 {
		resp.Batches = make([]WireBatch, nbatches)
		for i := range resp.Batches {
			b := &resp.Batches[i]
			if b.Seq, err = r.uvarint(); err != nil {
				return Response{}, err
			}
			if b.Term, err = r.uvarint(); err != nil {
				return Response{}, err
			}
			nrecs, err := r.count(2)
			if err != nil {
				return Response{}, err
			}
			b.Records = make([]WireRecord, nrecs)
			for j := range b.Records {
				if b.Records[j].Type, err = r.byteVal(); err != nil {
					return Response{}, err
				}
				if b.Records[j].Payload, err = r.bytes(); err != nil {
					return Response{}, err
				}
			}
		}
	}
	if resp.Rows, err = decodeRowSet(&r); err != nil {
		return Response{}, err
	}
	if r.remaining() != 0 {
		return Response{}, fmt.Errorf("server: frame decode: %d trailing bytes", r.remaining())
	}
	return resp, nil
}

// decodeRowSet parses the row-set layout (appendRowSet) into one map per
// row. The maps share the header's column-name strings, and every cell's
// quoted text is a substring of one arena string built for the whole
// response, so a row costs its map and nothing per cell. Counts are
// checked against the bytes left before anything is sized by them.
func decodeRowSet(r *wireBuf) ([]map[string]string, error) {
	ncols, err := r.count(1)
	if err != nil {
		return nil, err
	}
	names := make([]string, ncols)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	nrows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// A cell is at least one byte; a row without columns is the single
	// empty solution of a variable-free query.
	if ncols == 0 && nrows > 1 || ncols > 0 && nrows > uint64(r.remaining()/ncols) {
		return nil, fmt.Errorf("server: frame decode: %d rows of %d columns exceed payload", nrows, ncols)
	}
	if nrows == 0 {
		return nil, nil
	}
	// First pass: validate every cell and lay its text out in the arena;
	// ends[i] is where cell i's text ends, -1 for an unbound cell.
	ends := make([]int, int(nrows)*ncols)
	arena := make([]byte, 0, r.remaining()+2*len(ends))
	for i := range ends {
		if len(r.b) > 0 && r.b[0] == wireUnbound {
			r.b = r.b[1:]
			ends[i] = -1
			continue
		}
		if arena, err = r.quoted(arena); err != nil {
			return nil, err
		}
		ends[i] = len(arena)
	}
	text := string(arena)
	rows := make([]map[string]string, nrows)
	start, cell := 0, 0
	for i := range rows {
		m := make(map[string]string, ncols)
		for _, name := range names {
			if end := ends[cell]; end >= 0 {
				m[name] = text[start:end]
				start = end
			}
			cell++
		}
		rows[i] = m
	}
	return rows, nil
}
