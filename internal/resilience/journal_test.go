package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"fairflow/internal/appendlog"
)

func stamp(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []AttemptRecord{
		{Run: "g/s/run-0", Point: "i=0", Attempt: 1, Event: AttemptStart, Time: stamp(1)},
		{Run: "g/s/run-0", Point: "i=0", Attempt: 1, Event: AttemptFailure, Class: ClassTransient, Time: stamp(2), Err: "flaky"},
		{Run: "g/s/run-0", Point: "i=0", Attempt: 2, Event: AttemptStart, Time: stamp(3)},
		{Run: "g/s/run-0", Point: "i=0", Attempt: 2, Event: AttemptSuccess, Time: stamp(4)},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestDecodeJournalToleratesTornFinalLine(t *testing.T) {
	full, _ := json.Marshal(AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptStart, Time: stamp(1)})
	data := append(append([]byte{}, full...), '\n')
	data = append(data, []byte(`{"run":"r2","attempt":1,"ev`)...) // torn mid-append
	recs, err := DecodeJournal(data)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if len(recs) != 1 || recs[0].Run != "r1" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestDecodeJournalRejectsInteriorCorruption(t *testing.T) {
	full, _ := json.Marshal(AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptStart, Time: stamp(1)})
	data := []byte("{broken}\n")
	data = append(data, full...)
	data = append(data, '\n')
	if _, err := DecodeJournal(data); err == nil {
		t.Fatal("interior corruption must error, not silently truncate history")
	}
}

func TestDecodeJournalSkipsBlankLines(t *testing.T) {
	full, _ := json.Marshal(AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptSuccess, Time: stamp(1)})
	data := []byte("\n\n" + string(full) + "\n\n")
	recs, err := DecodeJournal(data)
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs = %v, err = %v", recs, err)
	}
}

func TestReadJournalFileMissingIsEmpty(t *testing.T) {
	recs, err := ReadJournalFile(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing journal: recs=%v err=%v", recs, err)
	}
}

func TestReplayReconstructsCampaignState(t *testing.T) {
	recs := []AttemptRecord{
		// done run
		{Run: "a", Attempt: 1, Event: AttemptStart},
		{Run: "a", Attempt: 1, Event: AttemptSuccess},
		// cached run
		{Run: "b", Attempt: 1, Event: AttemptCached},
		// failed-then-recovered run (done)
		{Run: "c", Attempt: 1, Event: AttemptStart},
		{Run: "c", Attempt: 1, Event: AttemptFailure, Class: ClassTransient},
		{Run: "c", Attempt: 2, Event: AttemptStart},
		{Run: "c", Attempt: 2, Event: AttemptSuccess},
		// in-flight at the crash
		{Run: "d", Attempt: 1, Event: AttemptStart},
		// terminally failed
		{Run: "e", Attempt: 3, Event: AttemptFailure, Class: ClassPermanent},
		// quarantined point
		{Run: "f", Point: "i=6", Attempt: 3, Event: AttemptQuarantined, Class: ClassTransient},
		// killed by infrastructure (stays pending)
		{Run: "g", Attempt: 1, Event: AttemptStart},
		{Run: "g", Attempt: 1, Event: AttemptKilled},
	}
	s := Replay(recs)
	if !s.Done["a"] || !s.Done["b"] || !s.Done["c"] {
		t.Fatalf("done set wrong: %v", s.Done)
	}
	if !s.InFlight["d"] {
		t.Fatal("crashed in-flight run not detected")
	}
	if !s.Failed["e"] || !s.Failed["f"] {
		t.Fatalf("failed set wrong: %v", s.Failed)
	}
	if !s.QuarantinedPoints["i=6"] {
		t.Fatal("quarantined point lost")
	}
	if s.Attempts["c"] != 2 || s.Attempts["e"] != 3 {
		t.Fatalf("attempt counts wrong: %v", s.Attempts)
	}
	all := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	rem := s.Remaining(all)
	want := "d,e,f,g,h"
	if got := strings.Join(rem, ","); got != want {
		t.Fatalf("remaining = %s, want %s", got, want)
	}
	if got := s.QuarantinedList(); len(got) != 1 || got[0] != "i=6" {
		t.Fatalf("QuarantinedList = %v", got)
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	if err := j.Append(AttemptRecord{Run: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Path() != "" {
		t.Fatal("nil journal path")
	}
}

// FuzzJournalDecode pins the decoder's crash-tolerance contract: arbitrary
// bytes never panic, and whatever decodes must re-encode to a journal that
// decodes to the same records (round-trip stability).
func FuzzJournalDecode(f *testing.F) {
	full, _ := json.Marshal(AttemptRecord{Run: "r", Point: "i=1", Attempt: 2, Event: AttemptFailure, Class: ClassTransient, Time: stamp(7), Err: "x"})
	f.Add(append(append([]byte{}, full...), '\n'))
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"run":"a","attempt":1,"event":"start"}` + "\n" + `{"run":"b","att`))
	f.Add([]byte("{broken}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeJournal(data)
		if err != nil {
			return
		}
		var buf []byte
		for _, r := range recs {
			if r.Run == "" {
				t.Fatal("decoder admitted a record without a run id")
			}
			line, merr := json.Marshal(r)
			if merr != nil {
				t.Fatalf("re-encoding decoded record: %v", merr)
			}
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		again, err := DecodeJournal(buf)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d != %d", len(again), len(recs))
		}
	})
}

func TestJournalSurvivesProcessCrashSimulation(t *testing.T) {
	// Simulate a kill -9 mid-append: write a valid prefix plus a torn tail
	// directly, then resume through the normal read path.
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(AttemptRecord{Run: "a", Attempt: 1, Event: AttemptSuccess, Time: stamp(1)})
	j.Append(AttemptRecord{Run: "b", Attempt: 1, Event: AttemptStart, Time: stamp(2)})
	j.Close() // the "crash" loses nothing already appended
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run":"c","attempt":1,"eve`) // torn
	f.Close()

	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := Replay(recs)
	if !s.Done["a"] || !s.InFlight["b"] {
		t.Fatalf("resume state wrong after torn write: done=%v inflight=%v", s.Done, s.InFlight)
	}
	// The resumed process appends to the same file.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Append(AttemptRecord{Run: "b", Attempt: 2, Event: AttemptSuccess, Time: stamp(3)}); err != nil {
		t.Fatal(err)
	}
}

// randomRecord draws an AttemptRecord that exercises every branch of the line
// encoder: each omitempty field on and off, strings json.Marshal escapes
// (quotes, backslashes, control bytes, <>&, non-ASCII, invalid UTF-8,
// U+2028), negative attempts, the zero time, fixed zones, sub-second parts.
func randomRecord(rng *rand.Rand) AttemptRecord {
	alphabets := []string{
		"abcdefghijklmnopqrstuvwxyz0123456789/-_=,. ",
		"ab\"\\\n\t\r\x00\x1f\x7f<>&",
		"aé世\u2028\u2029\xff\xc0😀 ",
	}
	str := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		alpha := []rune(alphabets[0])
		if rng.Intn(5) == 0 {
			alpha = []rune(alphabets[1+rng.Intn(2)])
		}
		b := make([]rune, 1+rng.Intn(24))
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		s := string(b)
		if rng.Intn(40) == 0 {
			s += "\xff" // []rune would have replaced it
		}
		return s
	}
	var ts time.Time
	switch rng.Intn(6) {
	case 0: // the zero time
	case 1:
		ts = time.Unix(rng.Int63n(4e9), 0).UTC()
	case 2:
		ts = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(time.FixedZone("", (rng.Intn(47*3600)-23*3600)/60*60))
	case 3:
		ts = time.Unix(rng.Int63n(4e9), rng.Int63n(1e3)*1e6).Local()
	case 4:
		ts = time.Date(rng.Intn(10000), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1e9), time.UTC)
	case 5:
		ts = time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)).In(time.FixedZone("odd", rng.Intn(3600)))
	}
	rec := AttemptRecord{Run: str(), Point: str(), Attempt: rng.Intn(2000) - 1000, Event: str(),
		Class: Class(str()), Time: ts, Err: str(), Worker: str()}
	if rng.Intn(2) == 0 {
		rec.Epoch = rng.Int63() - rng.Int63()
	}
	return rec
}

// TestJournalLineMatchesJSON: the journal's line encoder writes, byte for
// byte, what json.Marshal wrote before it — on disk nothing changed.
func TestJournalLineMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var buf []byte
	for i := 0; i < 20000; i++ {
		rec := randomRecord(rng)
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if buf, err = appendJournalLine(buf[:0], &rec); err != nil {
			t.Fatalf("record %d %+v: %v", i, rec, err)
		}
		if string(buf) != string(want)+"\n" {
			t.Fatalf("record %d %+v:\n got %s want %s", i, rec, buf, want)
		}
	}
	// What RFC 3339 cannot say is refused, as json.Marshal refuses it.
	for _, ts := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, 0).In(time.FixedZone("far", 24*3600)),
		time.Unix(0, 0).In(time.FixedZone("far", -24*3600)),
	} {
		rec := AttemptRecord{Run: "r", Event: AttemptStart, Time: ts}
		_, want := json.Marshal(rec)
		if _, err := appendJournalLine(nil, &rec); want == nil || err == nil {
			t.Errorf("time %v: json.Marshal says %v, the line encoder %v; want both to refuse", ts, want, err)
		}
	}
}

// FuzzJournalLine drives the line encoder from fuzzed fields: the line equals
// json.Marshal's and, fed back through DecodeJournal, yields a record that
// re-encodes to the same line.
func FuzzJournalLine(f *testing.F) {
	f.Add("g/s/run-00042", "i=42", 1, AttemptSuccess, "", int64(1700000000), int64(123456789), 0, "", "w0", int64(3))
	f.Add("r\"<>&\\", "é", -7, "x\n", "transient", int64(-62135596800), int64(0), -3600*5, "boom\x00", "", int64(0))
	f.Add("", "", 0, "", "", int64(253402300800), int64(0), 86400, "\xff", "\u2028", int64(-1))
	f.Fuzz(func(t *testing.T, run, point string, attempt int, event, class string, sec, nsec int64, zone int, errs, worker string, epoch int64) {
		rec := AttemptRecord{Run: run, Point: point, Attempt: attempt, Event: event, Class: Class(class),
			Time: time.Unix(sec, nsec%1e9).In(time.FixedZone("", zone%(48*3600))), Err: errs, Worker: worker, Epoch: epoch}
		want, werr := json.Marshal(rec)
		line, err := appendJournalLine(nil, &rec)
		if (werr == nil) != (err == nil) {
			t.Fatalf("%+v: json.Marshal says %v, the line encoder %v", rec, werr, err)
		}
		if err != nil {
			return
		}
		if string(line) != string(want)+"\n" {
			t.Fatalf("%+v:\n got %s want %s", rec, line, want)
		}
		recs, err := DecodeJournal(line)
		if run == "" {
			if err == nil {
				t.Fatalf("a line without a run id decoded: %s", line)
			}
			return
		}
		if err != nil || len(recs) != 1 {
			t.Fatalf("decoding %s: %d records, %v", line, len(recs), err)
		}
		again, err := appendJournalLine(nil, &recs[0])
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", recs[0], err)
		}
		// Invalid UTF-8 decodes to U+FFFD, so compare what each line decodes to.
		back, err := DecodeJournal(again)
		if err != nil || len(back) != 1 || !back[0].Time.Equal(recs[0].Time) || back[0].Run != recs[0].Run || back[0].Err != recs[0].Err {
			t.Fatalf("round trip: %+v became %+v (%v)", recs[0], back, err)
		}
	})
}

// TestJournalBatchAppend: a batch is one write, its records land in order,
// and the auto-sync stride counts records, checked once per batch.
func TestJournalBatchAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	writes := 0
	appendlog.Failpoint = func(op appendlog.Op, p string) error {
		if op == appendlog.OpWrite && p == path {
			writes++
		}
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	j.SetAutoSync(32)
	var want []AttemptRecord
	for _, size := range []int{1, 30, 0, 1, 5, 70, 31} {
		batch := make([]AttemptRecord, size)
		for i := range batch {
			batch[i] = AttemptRecord{Run: fmt.Sprintf("r%d", len(want)+i), Attempt: 1, Event: AttemptSuccess, Time: stamp(len(want) + i)}
		}
		if err := j.Append(batch...); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
	}
	if writes != 6 {
		t.Errorf("%d writes for six non-empty batches", writes)
	}
	// 1+30 = 31 (no sync), +1 = 32 (sync), +5 = 5, +70 = 75 (sync), +31 = 31.
	if got := j.Syncs(); got != 2 {
		t.Errorf("%d fsyncs, want 2: the stride is counted in records and checked once per batch", got)
	}
	got, err := ReadJournalFile(path)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %d records (%v), want the %d appended, in order", len(got), err, len(want))
	}
}

// TestJournalTornWriteIsTrimmed: a write that fails part-way leaves a
// fragment; the next append must not fuse onto it (a terminated malformed
// line mid-file makes DecodeJournal refuse the whole journal, so resume
// becomes impossible). Only the torn batch is lost.
func TestJournalTornWriteIsTrimmed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := func(i int) AttemptRecord {
		return AttemptRecord{Run: fmt.Sprintf("r%d", i), Attempt: 1, Event: AttemptSuccess, Time: stamp(i)}
	}
	if err := j.Append(rec(0), rec(1)); err != nil {
		t.Fatal(err)
	}
	var batch []byte
	for _, r := range []AttemptRecord{rec(2), rec(3), rec(4)} {
		if batch, err = appendJournalLine(batch, &r); err != nil {
			t.Fatal(err)
		}
	}
	appendlog.Failpoint = func(op appendlog.Op, p string) error {
		if op != appendlog.OpWrite || p != path {
			return nil
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		f.Write(batch[:len(batch)/2+3]) // a whole record and part of the next
		return syscall.ENOSPC
	}
	defer func() { appendlog.Failpoint = nil }()
	if err := j.Append(rec(2), rec(3), rec(4)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn append returned %v", err)
	}
	if _, err := ReadJournalFile(path); err != nil {
		t.Fatalf("the torn tail itself must stay readable: %v", err)
	}
	appendlog.Failpoint = nil
	if err := j.Append(rec(5)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("journal unreadable after a failed write and a good one: %v", err)
	}
	// The half of the torn batch that reached the file whole (r2) stays: its
	// batch was reported failed, so its runs are owed again and the record
	// is a duplicate at worst. Nothing is fused and nothing else is lost.
	var runs []string
	for _, r := range got {
		runs = append(runs, r.Run)
	}
	if want := []string{"r0", "r1", "r2", "r5"}; !reflect.DeepEqual(runs, want) {
		t.Fatalf("journal holds %v, want %v", runs, want)
	}
}

// TestOpenJournalFsyncsItsDirectory: creating the journal fsyncs the
// directory that holds it, so the file — and the epoch OpenEpoch promises is
// durable — survives a power loss.
func TestOpenJournalFsyncsItsDirectory(t *testing.T) {
	dir := t.TempDir()
	var synced []string
	appendlog.Failpoint = func(op appendlog.Op, p string) error {
		if op == appendlog.OpSync {
			synced = append(synced, p)
		}
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	j, err := OpenJournal(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(synced, []string{dir}) {
		t.Fatalf("creating the journal fsynced %q, want its directory %s", synced, dir)
	}
}

// TestJournalTornParseableTailIsCut: a last line without its newline is a
// batch whose write never returned, even when what landed parses. Readers do
// not count it, OpenJournal cuts it, and the next Append lands on a clean
// line.
func TestJournalTornParseableTailIsCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	whole, err := appendJournalLine(nil, &AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptSuccess, Time: stamp(1)})
	if err != nil {
		t.Fatal(err)
	}
	torn, err := appendJournalLine(nil, &AttemptRecord{Run: "r2", Attempt: 1, Event: AttemptSuccess, Time: stamp(2)})
	if err != nil {
		t.Fatal(err)
	}
	torn = torn[:len(torn)-1] // the record parses; only its newline is missing
	if err := os.WriteFile(path, append(append([]byte{}, whole...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournalFile(path)
	if err != nil || len(recs) != 1 || recs[0].Run != "r1" {
		t.Fatalf("read %+v (%v), want r1 alone", recs, err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if data, _ := os.ReadFile(path); string(data) != string(whole) {
		t.Fatalf("OpenJournal left %q, want the torn line cut", data)
	}
	if err := j.Append(AttemptRecord{Run: "r3", Attempt: 1, Event: AttemptSuccess, Time: stamp(3)}); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadJournalFile(path)
	if err != nil || len(recs) != 2 || recs[0].Run != "r1" || recs[1].Run != "r3" {
		t.Fatalf("after the next append read %+v (%v), want r1 and r3", recs, err)
	}
	if st := Replay(recs); st.Done["r2"] {
		t.Fatal("the torn record counts as done")
	}
}
