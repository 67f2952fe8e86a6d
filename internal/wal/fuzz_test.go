package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// seedFrames builds a few realistic encoded frames (the shapes the
// engine actually logs: a pending record, a grounding's facts plus
// tombstone, an abort) for the fuzz corpus.
func seedFrames() [][]byte {
	mk := func(seq uint64, recs []Record) []byte {
		return sealFrame(AppendBatchBody(make([]byte, 4), Batch{Seq: seq, Term: seq % 3, Records: recs}), 0)
	}
	return [][]byte{
		mk(1, []Record{{Type: 1, Payload: []byte("pending txn payload")}}),
		mk(2, []Record{
			{Type: 4, Payload: []byte("delete fact")},
			{Type: 3, Payload: []byte("insert fact")},
			{Type: 2, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 7}},
		}),
		mk(3, []Record{{Type: 5, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 2}}}),
		mk(1<<40, []Record{{Type: 3, Payload: nil}}),
	}
}

// FuzzBatchDecode fuzzes the CRC-framed batch decoder end to end: the
// fuzz input is interpreted as raw segment-file content after the magic,
// covering truncated, bit-flipped, duplicated, and wholly synthetic
// frames. Invariants: the frame walker and body decoder never panic,
// the walk itself never returns an error (frame-level corruption, a bad
// length or CRC, ends a segment silently: it is a torn tail by
// definition), every batch they DO yield came from a CRC-intact frame
// whose body round-trips through the encoder, and ReadAll refuses the
// file with ErrCorrupt exactly when a CRC-intact body does not decode.
func FuzzBatchDecode(f *testing.F) {
	frames := seedFrames()
	var all []byte
	for _, fr := range frames {
		f.Add(fr)
		all = append(all, fr...)
	}
	f.Add(all)                 // several intact frames back to back
	f.Add(all[:len(all)-3])    // torn tail
	f.Add(append(all, all...)) // duplicated frames
	flipped := append([]byte(nil), all...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip mid-stream
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The body decoder alone must tolerate arbitrary bytes; anything
		// it accepts must survive an encode/decode round trip unchanged
		// (byte equality is too strict: uvarints admit non-minimal forms).
		if len(data) >= 16 {
			if b, err := DecodeBatch(data); err == nil {
				b2, err := DecodeBatch(AppendBatchBody(nil, b))
				if err != nil {
					t.Fatalf("re-encoded accepted batch fails to decode: %v", err)
				}
				if b2.Seq != b.Seq || b2.Term != b.Term || len(b2.Records) != len(b.Records) {
					t.Fatalf("round trip changed batch shape: %+v vs %+v", b, b2)
				}
				for i := range b.Records {
					if b2.Records[i].Type != b.Records[i].Type ||
						!bytes.Equal(b2.Records[i].Payload, b.Records[i].Payload) {
						t.Fatalf("round trip changed record %d", i)
					}
				}
			}
		}
		// The frame walker over a synthetic segment file must neither
		// panic nor propagate corruption as an error, and each delivered
		// body must carry a valid CRC in the file.
		root := filepath.Join(t.TempDir(), "fuzz.wal")
		path := root + ".0"
		if err := os.WriteFile(path, append([]byte(segMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		var bodies [][]byte
		if err := scanSegment(path, func(body []byte) bool {
			bodies = append(bodies, append([]byte(nil), body...))
			return true
		}); err != nil {
			t.Fatalf("scanSegment errored on corrupt input: %v", err)
		}
		// Re-walk the raw bytes: every delivered body must be findable as
		// a CRC-intact frame at the position the walker visited.
		off := 0
		for i, body := range bodies {
			if off+4 > len(data) {
				t.Fatalf("body %d delivered beyond file end", i)
			}
			n := binary.LittleEndian.Uint32(data[off:])
			if int(n) != len(body) {
				t.Fatalf("body %d length %d does not match frame header %d", i, len(body), n)
			}
			frameBody := data[off+4 : off+4+len(body)]
			crc := binary.LittleEndian.Uint32(data[off+4+len(body):])
			if crc32.Checksum(frameBody, crcTable) != crc {
				t.Fatalf("body %d delivered from a frame whose CRC does not verify", i)
			}
			off += 4 + len(body) + 4
		}
		// A delivered body that does not decode is refused, not skipped.
		undecodable := false
		for _, body := range bodies {
			if _, err := DecodeBatch(body); err != nil {
				undecodable = true
			}
		}
		if _, err := ReadAll(root); undecodable != (err != nil) || err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadAll = %v with an undecodable body: %v", err, undecodable)
		}
	})
}
