package cas

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fairflow/internal/appendlog"
)

// FuzzRecipeDigest holds the recipe encoder to the fmt reference encoder
// (cas_test.go) on arbitrary fields: a kind, parameters packed as
// NUL-separated key/value pairs, and inputs split at NUL. One seed outgrows
// the encoder's stack buffers: more than 16 parameters, over 512 bytes.
func FuzzRecipeDigest(f *testing.F) {
	f.Add("tabular/paste@v1", "delim\x00\t\x00ragged\x00false", "sha256:aa\x00sha256:bb")
	f.Add("", "", "")
	f.Add("op@v1", "\x00\x00a:1\x002:b", "\x00")
	var big []string
	for i := 0; i < 20; i++ {
		big = append(big, "key"+strings.Repeat("k", i), strings.Repeat("v", 40*i))
	}
	f.Add(strings.Repeat("kind", 50), strings.Join(big, "\x00"), strings.Repeat("sha256:in\x00", 14))
	f.Fuzz(func(t *testing.T, kind, params, inputs string) {
		r := Recipe{Kind: kind, Params: map[string]string{}}
		kv := strings.Split(params, "\x00")
		for i := 0; i+1 < len(kv); i += 2 {
			r.Params[kv[i]] = kv[i+1]
		}
		if inputs != "" {
			for _, in := range strings.Split(inputs, "\x00") {
				r.Inputs = append(r.Inputs, Digest(in))
			}
		}
		if got, want := r.Digest(), referenceRecipeDigest(r); got != want {
			t.Fatalf("recipe %+v: digest %s, reference %s", r, got, want)
		}
	})
}

// FuzzCASLogReplay drives arbitrary bytes through the replay of the action
// log — the line splitter and the line decoder. It must never panic;
// whatever it accepts must satisfy the invariants the cache relies on; and
// since only an unterminated last line may be skipped, cutting an accepted
// log short anywhere must be accepted too, yielding a prefix of the same
// records. The seeds shaped as lines of the index log stores once kept stay:
// the action log must reject them.
func FuzzCASLogReplay(f *testing.F) {
	const hx = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	f.Add([]byte(`{"digest":"sha256:`+hx+`","size":12}`+"\n"), uint16(7))
	f.Add([]byte(`{"digest":"sha256:`+hx+`","size":12}`+"\n"+`{"digest":"sha256:`+hx[:40]), uint16(80))
	f.Add([]byte(`{"digest":"`+hx+`","size":12}`+"\n"), uint16(0))
	f.Add([]byte(`{"digest":"sha256:`+hx+`","size":-1}`+"\n"), uint16(3))
	f.Add([]byte(`{"recipe":"sha256:`+hx+`","result":{"outputs":{"out":"sha256:`+hx+`"},"meta":{"rows":"4"}}}`+"\n"), uint16(50))
	f.Add([]byte(`{"recipe":"","result":{}}`+"\n"), uint16(1))
	f.Add([]byte("\n\n"), uint16(1))
	f.Add([]byte(`null`+"\n"+`[]`+"\n"), uint16(5))
	f.Add([]byte(``), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		replayActions := func(data []byte) ([]actionRecord, error) {
			var recs []actionRecord
			_, err := appendlog.Replay(bytes.NewReader(data), func(line []byte) error {
				rec, err := decodeActionRecord(line)
				recs = append(recs, rec)
				return err
			})
			return recs, err
		}
		short := data[:int(cut)%(len(data)+1)]

		if recs, err := replayActions(data); err == nil {
			for _, rec := range recs {
				if rec.Recipe == "" {
					t.Fatalf("accepted action record with no recipe: %+v", rec)
				}
			}
			prefix, err := replayActions(short)
			if err != nil || len(prefix) > len(recs) || len(prefix) > 0 && !reflect.DeepEqual(prefix, recs[:len(prefix)]) {
				t.Fatalf("action log accepted whole but cut at %d gives %v, err %v", len(short), prefix, err)
			}
		}
	})
}
