package cheetah

import (
	"bytes"
	"reflect"
	"testing"

	"fairflow/internal/appendlog"
)

// FuzzStatusLogReplay drives arbitrary bytes through the status log's read
// path — the line splitter and the line decoder. It must never panic; every
// record it accepts names a run and one of the four statuses; since only an
// unterminated last line may be skipped, cutting an accepted log short
// anywhere is accepted too and yields a prefix of the same records; and every
// accepted record re-encodes to a line that decodes back to itself.
func FuzzStatusLogReplay(f *testing.F) {
	f.Add([]byte(`{"run":"g/s/run-00001","status":"running"}`+"\n"+`{"run":"g/s/run-00001","status":"succeeded"}`+"\n"), uint16(50))
	f.Add([]byte(`{"run":"g/s/run-00001","status":"failed"}`+"\n"+`{"run":"g/s/run-00002","sta`), uint16(60))
	f.Add([]byte(`{"run":"tab\there \"quoted\" new\nline \\ back","status":"pending"}`+"\n"), uint16(9))
	f.Add([]byte(`{"run":"g/s/run-00001","status":"done"}`+"\n"), uint16(3))
	f.Add([]byte(`{"run":"","status":"failed"}`+"\n"), uint16(1))
	f.Add([]byte("g/s/run-00001\tsucceeded\n"), uint16(4))
	f.Add([]byte("\n\n"), uint16(1))
	f.Add([]byte(`null`+"\n"+`[]`+"\n"), uint16(5))
	f.Add([]byte(``), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		replay := func(data []byte) ([]StatusLine, error) {
			var recs []StatusLine
			_, err := appendlog.Replay(bytes.NewReader(data), func(line []byte) error {
				rec, err := decodeStatusLine(line)
				if err == nil {
					recs = append(recs, rec)
				}
				return err
			})
			return recs, err
		}
		recs, err := replay(data)
		if err != nil {
			return
		}
		if len(recs) != bytes.Count(data, []byte("\n")) {
			t.Fatalf("accepted %d records from %d terminated lines", len(recs), bytes.Count(data, []byte("\n")))
		}
		short := data[:int(cut)%(len(data)+1)]
		prefix, err := replay(short)
		if err != nil || len(prefix) > len(recs) || len(prefix) > 0 && !reflect.DeepEqual(prefix, recs[:len(prefix)]) {
			t.Fatalf("log accepted whole but cut at %d gives %v, err %v", len(short), prefix, err)
		}
		for _, rec := range recs {
			if rec.Run == "" || !rec.Status.valid() {
				t.Fatalf("accepted record %+v", rec)
			}
			line := appendStatusLine(nil, rec.Run, rec.Status)
			if line[len(line)-1] != '\n' || bytes.IndexByte(line, '\n') != len(line)-1 {
				t.Fatalf("record %+v encodes to %q: not exactly one line", rec, line)
			}
			back, err := decodeStatusLine(line[:len(line)-1])
			if err != nil || back != rec {
				t.Fatalf("record %+v encodes to %q, which decodes to %+v, err %v", rec, line, back, err)
			}
		}
	})
}
