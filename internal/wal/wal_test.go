package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dwatch/internal/obs"
)

// appendN appends n records with deterministic payloads and timestamps
// and returns them for comparison.
func appendN(t *testing.T, w *WAL, n int, payloadLen int) []Record {
	t.Helper()
	out := make([]Record, n)
	base := time.UnixMicro(1_700_000_000_000_000)
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, payloadLen)
		at := base.Add(time.Duration(i) * 10 * time.Millisecond)
		seq, err := w.Append(at, uint16(60+i%4), payload)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out[i] = Record{Seq: seq, At: at, Type: uint16(60 + i%4), Payload: payload}
	}
	return out
}

func readAll(t *testing.T, dir string) ([]Record, ScanResult) {
	t.Helper()
	var recs []Record
	res, err := Scan(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return recs, res
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever))
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, w, 25, 64)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, res := readAll(t, dir)
	if res.Damage != nil {
		t.Fatalf("unexpected damage: %s", res.Damage)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type ||
			!got[i].At.Equal(want[i].At) || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
	if res.LastSeq != want[len(want)-1].Seq {
		t.Fatalf("LastSeq = %d, want %d", res.LastSeq, want[len(want)-1].Seq)
	}
}

func TestAppendResumesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	first := appendN(t, w, 5, 32)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := w2.Status()
	if st.Recovered != 5 {
		t.Fatalf("recovered %d records, want 5", st.Recovered)
	}
	if st.NextSeq != first[len(first)-1].Seq+1 {
		t.Fatalf("next seq %d, want %d", st.NextSeq, first[len(first)-1].Seq+1)
	}
	if st.Segments != 1 {
		t.Fatalf("reopen grew segments: %d, want 1 (should resume the tail segment)", st.Segments)
	}
	more := appendN(t, w2, 3, 32)
	if more[0].Seq != first[len(first)-1].Seq+1 {
		t.Fatalf("resumed seq %d, want %d", more[0].Seq, first[len(first)-1].Seq+1)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := readAll(t, dir)
	if res.Damage != nil || len(got) != 8 {
		t.Fatalf("after reopen: %d records (damage %v), want 8 clean", len(got), res.Damage)
	}
}

// TestRotationBoundaryExactFit pins the boundary condition: a record
// that lands exactly at the segment cap stays in the segment; the next
// byte rotates.
func TestRotationBoundaryExactFit(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 100)
	recLen := encodedLen(payload)
	// Room for the header plus exactly two records.
	max := int64(segHeaderLen) + 2*recLen
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever), WithSegmentMaxBytes(max))
	if err != nil {
		t.Fatal(err)
	}
	at := time.UnixMicro(1_700_000_000_000_000)
	for i := 0; i < 2; i++ {
		if _, err := w.Append(at, 61, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Status(); st.Segments != 1 || st.Rotations != 0 {
		t.Fatalf("exact fit rotated early: %+v", st)
	}
	// One byte over: must rotate into a second segment.
	if _, err := w.Append(at, 61, payload); err != nil {
		t.Fatal(err)
	}
	st := w.Status()
	if st.Segments != 2 || st.Rotations != 1 {
		t.Fatalf("overflow did not rotate: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := readAll(t, dir)
	if res.Damage != nil || len(got) != 3 || res.Segments != 2 {
		t.Fatalf("after rotation: %d records over %d segments (damage %v)", len(got), res.Segments, res.Damage)
	}
}

// TestOversizedRecordRotates covers the other rotation trigger path: a
// record larger than the remaining room in a non-empty segment.
func TestOversizedRecordRotates(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever), WithSegmentMaxBytes(4096))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	if _, err := w.Append(at, 61, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Larger than the whole cap: allowed (a segment may hold a single
	// oversized record), but it must go into its own fresh segment.
	if _, err := w.Append(at, 61, make([]byte, 8000)); err != nil {
		t.Fatal(err)
	}
	if st := w.Status(); st.Segments != 2 {
		t.Fatalf("oversized record did not rotate: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, res := readAll(t, dir); res.Damage != nil || len(got) != 2 {
		t.Fatalf("read back %d records (damage %v), want 2", len(got), res.Damage)
	}
}

func TestRetentionMaxSegments(t *testing.T) {
	payload := make([]byte, 100)
	recLen := encodedLen(payload)
	dir := t.TempDir()
	w, err := Open(dir,
		WithFsync(FsyncNever),
		WithSegmentMaxBytes(int64(segHeaderLen)+recLen), // one record per segment
		WithRetention(Retention{MaxSegments: 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10, 100)
	st := w.Status()
	if st.Segments > 3 {
		t.Fatalf("retention kept %d segments, cap 3", st.Segments)
	}
	if st.Deleted == 0 {
		t.Fatal("retention deleted nothing")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The survivors must still read back cleanly, newest records last.
	got, res := readAll(t, dir)
	if res.Damage != nil {
		t.Fatalf("damage after retention: %s", res.Damage)
	}
	if len(got) == 0 || got[len(got)-1].Seq != 10 {
		t.Fatalf("tail record seq = %v, want 10", got)
	}
}

func TestRetentionMaxBytes(t *testing.T) {
	payload := make([]byte, 200)
	recLen := encodedLen(payload)
	segBytes := int64(segHeaderLen) + 2*recLen
	dir := t.TempDir()
	w, err := Open(dir,
		WithFsync(FsyncNever),
		WithSegmentMaxBytes(segBytes),
		WithRetention(Retention{MaxBytes: 3 * segBytes}),
	)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 20, 200)
	if st := w.Status(); st.Bytes > 3*segBytes {
		t.Fatalf("retention kept %d bytes, cap %d", st.Bytes, 3*segBytes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionMaxAge(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	payload := make([]byte, 100)
	recLen := encodedLen(payload)
	dir := t.TempDir()
	w, err := Open(dir,
		WithFsync(FsyncNever),
		WithSegmentMaxBytes(int64(segHeaderLen)+recLen),
		WithRetention(Retention{MaxAge: time.Hour}),
		withNow(clock),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(now, 61, payload); err != nil {
		t.Fatal(err)
	}
	// Jump the clock: the next two appends rotate twice, and the first
	// rotation's sealed segment is now ancient.
	now = now.Add(2 * time.Hour)
	if _, err := w.Append(now, 61, payload); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := w.Append(now, 61, payload); err != nil {
		t.Fatal(err)
	}
	st := w.Status()
	if st.Deleted == 0 {
		t.Fatalf("age retention deleted nothing: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentMaxAgeRotates(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncNever), WithSegmentMaxAge(time.Minute), withNow(clock))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(now, 61, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := w.Append(now, 61, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if st := w.Status(); st.Rotations != 1 {
		t.Fatalf("age rotation did not fire: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"always", []Option{WithFsync(FsyncAlways)}},
		{"interval", []Option{WithFsync(FsyncInterval), WithFsyncInterval(time.Millisecond)}},
		{"never", []Option{WithFsync(FsyncNever)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 10, 50)
			if tc.name == "interval" {
				// Give the background flusher a tick.
				time.Sleep(20 * time.Millisecond)
				if w.Status().Fsyncs == 0 {
					t.Fatal("interval policy never fsynced")
				}
			}
			if tc.name == "always" {
				if got := w.Status().Fsyncs; got < 10 {
					t.Fatalf("always policy fsynced %d times, want >= 10", got)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got, res := readAll(t, dir); res.Damage != nil || len(got) != 10 {
				t.Fatalf("read %d records (damage %v)", len(got), res.Damage)
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(time.Now(), 61, nil); err == nil {
		t.Fatal("append after close succeeded")
	}
	// Close is idempotent.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		p    FsyncPolicy
		d    time.Duration
		fail bool
	}{
		{in: "always", p: FsyncAlways},
		{in: "never", p: FsyncNever},
		{in: "interval", p: FsyncInterval},
		{in: "", p: FsyncInterval},
		{in: "interval=250ms", p: FsyncInterval, d: 250 * time.Millisecond},
		{in: "interval=-1s", fail: true},
		{in: "sometimes", fail: true},
	} {
		p, d, err := ParseFsyncPolicy(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("ParseFsyncPolicy(%q): no error", tc.in)
			}
			continue
		}
		if err != nil || p != tc.p || d != tc.d {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v, %v; want %v, %v", tc.in, p, d, err, tc.p, tc.d)
		}
	}
}

func TestParseRetention(t *testing.T) {
	r, err := ParseRetention("segments=4,bytes=64MiB,age=24h")
	if err != nil {
		t.Fatal(err)
	}
	want := Retention{MaxSegments: 4, MaxBytes: 64 << 20, MaxAge: 24 * time.Hour}
	if r != want {
		t.Fatalf("got %+v, want %+v", r, want)
	}
	if r, err = ParseRetention(""); err != nil || r != (Retention{}) {
		t.Fatalf("empty spec: %+v, %v", r, err)
	}
	for _, bad := range []string{"segments=0", "bytes=x", "age=never", "turtles=3", "oops"} {
		if _, err := ParseRetention(bad); err == nil {
			t.Errorf("ParseRetention(%q): no error", bad)
		}
	}
}

func TestObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	w, err := Open(dir, WithFsync(FsyncAlways), WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 4, 64)
	snap := reg.Snapshot()
	if got := snap["dwatch_wal_appends_total"]; got != 4 {
		t.Fatalf("appends metric = %v, want 4", got)
	}
	if got := snap["dwatch_wal_fsyncs_total"]; got < 4 {
		t.Fatalf("fsyncs metric = %v, want >= 4", got)
	}
	if got := snap["dwatch_wal_segments"]; got != 1 {
		t.Fatalf("segments gauge = %v, want 1", got)
	}
	if got := snap["dwatch_wal_append_seconds_count"]; got != 4 {
		t.Fatalf("append histogram count = %v, want 4", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// corruptAt flips one byte in the named segment at the given offset.
func corruptAt(t *testing.T, dir, seg string, off int64) {
	t.Helper()
	path := filepath.Join(dir, seg)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles lists the on-disk segments, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// readerDrain pulls every record through the streaming Reader (the
// Scan path is exercised elsewhere).
func readerDrain(t *testing.T, dir string) (*Reader, []Record) {
	t.Helper()
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r, recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// TestRecordEncodingGolden pins the byte layout so format drift cannot
// pass silently: a change here is a version bump, not a refactor.
func TestRecordEncodingGolden(t *testing.T) {
	buf := appendRecord(nil, 7, time.UnixMicro(0x0102030405060708), 61, []byte{0xAA, 0xBB})
	if len(buf) != recHeaderLen+recFixedLen+2 {
		t.Fatalf("encoded length %d", len(buf))
	}
	if got := binary.BigEndian.Uint32(buf[0:4]); got != recFixedLen+2 {
		t.Fatalf("length field %d", got)
	}
	body := buf[recHeaderLen:]
	if got := binary.BigEndian.Uint64(body[0:8]); got != 7 {
		t.Fatalf("seq field %d", got)
	}
	if got := binary.BigEndian.Uint64(body[8:16]); got != 0x0102030405060708 {
		t.Fatalf("timestamp field %x", got)
	}
	if got := binary.BigEndian.Uint16(body[16:18]); got != 61 {
		t.Fatalf("type field %d", got)
	}
	if !bytes.Equal(body[18:], []byte{0xAA, 0xBB}) {
		t.Fatalf("payload %x", body[18:])
	}
}
