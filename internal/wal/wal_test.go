package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// writeLegacyLog writes records at path in the retired single-file format
// (per record: u32 length of type+payload, type, payload, CRC-32C; no
// header), so the tests can check that the segmented log refuses it.
func writeLegacyLog(t *testing.T, path string, recs ...Record) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(r.Payload)))
		body := len(buf)
		buf = append(buf, r.Type)
		buf = append(buf, r.Payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[body:], crcTable))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readRecords replays the log rooted at path and flattens its batches.
func readRecords(t *testing.T, path string) []Record {
	t.Helper()
	batches, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for _, b := range batches {
		out = append(out, b.Records...)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, path := openSeg(t, 1)
	recs := []Record{
		{Type: 1, Payload: []byte("pending txn 1")},
		{Type: 2, Payload: []byte{}},
		{Type: 1, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range recs {
		if _, err := l.AppendBatch(0, []Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readRecords(t, path)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Type != recs[i].Type || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	got, err := ReadAll(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing log should replay empty, got %v, %v", got, err)
	}
}

func TestReplayTornTail(t *testing.T) {
	l, path := openSeg(t, 1)
	if _, err := l.AppendBatch(0, []Record{rec(1, "good")}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(0, []Record{rec(1, "to be torn")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last 3 bytes off, simulating a crash mid-write.
	seg := segmentPath(path, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got := readRecords(t, path)
	if len(got) != 1 || string(got[0].Payload) != "good" {
		t.Fatalf("replayed %v before the torn tail, want just \"good\"", got)
	}
}

func TestReplayBitFlip(t *testing.T) {
	l, path := openSeg(t, 1)
	if _, err := l.AppendBatch(0, []Record{rec(1, "payload")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(path, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x01 // flip a payload bit
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, path); len(got) != 0 {
		t.Fatalf("a bit-flipped frame replayed as %v", got)
	}
}

func TestTruncate(t *testing.T) {
	l, path := openSeg(t, 1)
	if _, err := l.AppendBatch(0, []Record{rec(1, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(0, []Record{rec(2, "y")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := readRecords(t, path); len(got) != 1 || got[0].Type != 2 {
		t.Fatalf("after truncate: %v", got)
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, _ := openSeg(t, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(0, []Record{rec(1, "")}); err == nil {
		t.Error("append to closed log succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Error("sync on closed log succeeded")
	}
	if err := l.Truncate(); err == nil {
		t.Error("truncate on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestSyncOnAppend(t *testing.T) {
	l, path := openSeg(t, 1)
	l.SyncOnAppend = true
	if _, err := l.AppendBatch(0, []Record{rec(7, "durable")}); err != nil {
		t.Fatal(err)
	}
	// Without closing, the data must already be on disk.
	if got := readRecords(t, path); len(got) != 1 {
		t.Fatalf("synced record not visible: %d", len(got))
	}
}

func TestQuickRoundTripArbitraryPayloads(t *testing.T) {
	f := func(payloads [][]byte, types []uint8) bool {
		dir, err := os.MkdirTemp("", "walquick")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "q.wal")
		l, err := OpenSegmented(path, 1)
		if err != nil {
			return false
		}
		n := len(payloads)
		if len(types) < n {
			n = len(types)
		}
		for i := 0; i < n; i++ {
			if _, err := l.AppendBatch(0, []Record{{Type: types[i], Payload: payloads[i]}}); err != nil {
				return false
			}
		}
		l.Close()
		batches, err := ReadAll(path)
		if err != nil || len(batches) != n {
			return false
		}
		for i, b := range batches {
			r := b.Records[0]
			if len(b.Records) != 1 || r.Type != types[i] || !bytes.Equal(r.Payload, payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
