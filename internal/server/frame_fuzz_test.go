package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	quantumdb "repro"
	"repro/internal/value"
	"repro/internal/wal"
)

// FuzzFrameDecode throws arbitrary bytes at the wire decoder stack:
// readFrame (length prefix, incremental body read, CRC check) and then
// both payload decoders. Corrupt lengths, truncated frames, flipped
// CRC bits, and oversized declared sizes must all surface as errors —
// never a panic, and never an allocation proportional to a length the
// peer merely CLAIMED (readFrame grows the buffer at most frameChunk
// ahead of bytes actually received).
func FuzzFrameDecode(f *testing.F) {
	// Seed 1: a valid request frame.
	req := Request{Op: "txn", Txn: "+T(1) :-1 S(x)"}
	b := beginFrame(nil, 7, opCodes["txn"])
	b = appendRequest(b, &req)
	f.Add(finishFrame(b))

	// Seed 2: a valid response frame.
	resp := Response{OK: true, ID: 42, Pending: 2}
	b = beginFrame(nil, 9, 0)
	b, _ = appendResponse(b, &resp)
	f.Add(finishFrame(b))

	// Seed 3: a shed response.
	b = beginFrame(nil, 3, 0)
	b, _ = appendResponse(b, &Response{Err: "server: overloaded", Retry: true})
	f.Add(finishFrame(b))

	// Seed 4: truncated mid-body.
	full := finishFrame(appendRequest(beginFrame(nil, 1, opCodes["ping"]), &Request{Op: "ping"}))
	f.Add(full[:len(full)-3])

	// Seed 5: corrupt CRC (flip a bit in the trailer).
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0x40
	f.Add(bad)

	// Seed 6: oversized declared length.
	huge := binary.LittleEndian.AppendUint32(nil, uint32(maxFrameBody+1))
	f.Add(append(huge, 0, 0, 0, 0))

	// Seed 7: zero-length body (shorter than the id+op header).
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))

	// Seeds 8-12: the row-set layout (ncols | names | nrows | cells),
	// sound and then lying about its size in each way a count can: the
	// decoder must refuse before sizing anything by the claimed counts.
	for _, rowSet := range rowSetSeeds() {
		f.Add(finishFrame(append(rowSetPrefix(), rowSet...)))
	}

	// Seeds 13-15: a repl.pull response whose batches travel as WAL
	// bodies, sound, with a body that lies about its record count, and
	// with a batch count beyond the payload.
	for _, batches := range batchSeeds() {
		f.Add(finishFrame(append(batchPrefix(), batches...)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			_, op, payload, nbuf, err := readFrame(br, buf)
			buf = nbuf
			if err != nil {
				return // any malformed input must land here, not panic
			}
			if len(buf) > maxFrameBody+frameChunk {
				t.Fatalf("frame buffer grew to %d: over-allocation past claimed-size guard", len(buf))
			}
			// A frame that passed CRC may still hold a garbage payload;
			// both decoders must reject it gracefully.
			if _, err := decodeRequest(op, payload); err != nil {
				_ = err
			}
			if _, err := decodeResponse(payload); err != nil {
				_ = err
			}
		}
	})
}

// rowSetPrefix is a response frame up to where its row set starts.
func rowSetPrefix() []byte {
	b, _ := appendResponse(beginFrame(nil, 5, 0), &Response{OK: true})
	return b[:len(b)-2] // drop the empty row set: 0 columns, 0 rows
}

// rowSetSeeds returns row-set encodings: one valid, the rest corrupt.
func rowSetSeeds() [][]byte {
	rs := &quantumdb.RowSet{Cols: []string{"f", "s"}, N: 2, Vals: []value.Value{
		value.NewInt(1), value.NewString("1A"), value.NewInt(1), value.NewString("o'k")}}
	valid := appendRowSet(nil, rs)
	header := appendWireString(appendWireString([]byte{2}, "f"), "s")
	return [][]byte{
		valid,
		// Column count times row count overflows the payload (and uint64).
		binary.AppendUvarint(append([]byte(nil), header...), 1<<63),
		// Truncated arena: the last cell's string is cut short.
		valid[:len(valid)-2],
		// Zero columns cannot carry more than the one empty solution.
		{0, 200},
		// A column count larger than the payload.
		binary.AppendUvarint(nil, 1<<40),
	}
}

// pullBatches are two batches as repl.pull ships them: one record with
// an empty payload, and several records.
var pullBatches = []wal.Batch{
	{Seq: 4, Term: 2, Records: []wal.Record{{Type: 1}}},
	{Seq: 9, Term: 3, Records: []wal.Record{
		{Type: 3, Payload: []byte("insert fact")},
		{Type: 4, Payload: []byte("delete fact")},
		{Type: 2, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 7}},
	}},
}

// batchPrefix is a response frame up to where its batches start.
func batchPrefix() []byte {
	b, _ := appendResponse(beginFrame(nil, 6, 0), &Response{OK: true})
	return b[:len(b)-3] // drop the batch count and the empty row set
}

// batchSeeds returns batch encodings followed by an empty row set: one
// valid, the rest corrupt.
func batchSeeds() [][]byte {
	full, _ := appendResponse(nil, &Response{OK: true, Batches: pullBatches})
	valid := full[len(batchPrefix())-4-frameHeader:]
	lying := wal.AppendBatchBody(nil, pullBatches[0])
	lying[16] = 5 // five records claimed, one present
	return [][]byte{
		valid,
		append(appendWireBytes([]byte{1}, lying), 0, 0),
		append(binary.AppendUvarint(nil, 1<<40), 0, 0),
	}
}

// TestRowSetDecodeRejectsCorruptCounts pins what the fuzzer probes
// statistically: every corrupt row-set seed is an error, and the sound
// one decodes.
func TestRowSetDecodeRejectsCorruptCounts(t *testing.T) {
	for i, rowSet := range rowSetSeeds() {
		payload := append(rowSetPrefix()[4+frameHeader:], rowSet...)
		resp, err := decodeResponse(payload)
		if i == 0 {
			if err != nil || len(resp.Rows) != 2 || resp.Rows[1]["s"] != `'o\'k'` {
				t.Fatalf("valid row set: rows %v, err %v", resp.Rows, err)
			}
		} else if err == nil {
			t.Fatalf("corrupt row set %d decoded: %v", i, resp.Rows)
		}
	}
}

// TestReadFrameRejectsOversized pins the specific guard the fuzzer
// probes statistically: a declared body length past maxFrameBody is
// refused BEFORE any body bytes are read or buffered.
func TestReadFrameRejectsOversized(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(maxFrameBody+1))
	br := bufio.NewReader(bytes.NewReader(hdr))
	_, _, _, _, err := readFrame(br, nil)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameRoundTrip: a loaded request, and a repl.pull response
// carrying two batches, survive encode → decode; the corrupt batch
// seeds are refused.
func TestFrameRoundTrip(t *testing.T) {
	req := Request{
		Op: "etxn", Txn: "+A(1)", Tag: "tag", Partner: "p",
		Query: "Q(x)", Facts: "+F(1)", ID: 77,
		Force: true, After: 123, Term: 6, Addr: "10.0.0.1:7777", WaitMS: 456,
		Table: &TableSpec{Name: "T", Columns: []string{"a", "b"}, Key: []int{1}},
		Txns:  []string{"+X(1)", "+Y(2)"},
	}
	b := finishFrame(appendRequest(beginFrame(nil, 11, opCodes["etxn"]), &req))
	br := bufio.NewReader(bytes.NewReader(b))
	id, op, payload, _, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 11 || opNames[op] != "etxn" {
		t.Fatalf("id=%d op=%d", id, op)
	}
	got, err := decodeRequest(op, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Txn != req.Txn || got.Tag != req.Tag || got.Partner != req.Partner ||
		got.Query != req.Query || got.Facts != req.Facts ||
		got.ID != req.ID || !got.Force || got.After != req.After ||
		got.Term != req.Term || got.Addr != req.Addr || got.WaitMS != req.WaitMS ||
		got.Table == nil || got.Table.Name != "T" ||
		len(got.Table.Columns) != 2 || len(got.Table.Key) != 1 ||
		len(got.Txns) != 2 || got.Txns[1] != "+Y(2)" {
		t.Fatalf("request round trip mismatch: %+v", got)
	}

	for i, batches := range batchSeeds() {
		payload := append(batchPrefix()[4+frameHeader:], batches...)
		resp, err := decodeResponse(payload)
		if i > 0 {
			if err == nil {
				t.Fatalf("corrupt batch seed %d decoded: %+v", i, resp.Batches)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Batches) != len(pullBatches) {
			t.Fatalf("decoded %d batches, want %d", len(resp.Batches), len(pullBatches))
		}
		for j, want := range pullBatches {
			got := resp.Batches[j]
			if got.Seq != want.Seq || got.Term != want.Term || len(got.Records) != len(want.Records) {
				t.Fatalf("batch %d: got seq %d term %d with %d records, want %+v", j, got.Seq, got.Term, len(got.Records), want)
			}
			for k, r := range want.Records {
				if got.Records[k].Type != r.Type || !bytes.Equal(got.Records[k].Payload, r.Payload) {
					t.Fatalf("batch %d record %d: got %+v, want %+v", j, k, got.Records[k], r)
				}
			}
		}
	}
}
