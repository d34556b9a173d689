package cas

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"fairflow/internal/appendlog"
)

// IndexVersion is the current index schema version.
const IndexVersion = 1

// ObjectInfo is one object's metadata.
type ObjectInfo struct {
	Size int64 `json:"size"`
}

// Index is the store's JSON metadata: hex digest → object info. The object
// files themselves are the source of truth; the index makes stats and GC
// sweeps cheap (no directory walk) and records sizes without re-stating.
// On disk it is a snapshot (index.json, this struct) plus an append-only
// tail (index.json.log, one indexRecord per line) of the objects added
// since the snapshot was written.
type Index struct {
	Version int                   `json:"version"`
	Objects map[string]ObjectInfo `json:"objects"`

	path string
	log  *metaLog
}

// indexRecord is one line of index.json.log.
type indexRecord struct {
	Digest Digest `json:"digest"`
	Size   int64  `json:"size"`
}

// DecodeIndexFrom parses and validates index JSON. It is the decoder the
// FuzzIndexDecode target exercises: arbitrary bytes must either yield a
// structurally valid index or an error — never a panic or an index that
// later corrupts the store. loadIndex feeds the index file through it
// directly, so even a pathological multi-MB index is never slurped into one
// buffer on top of the decoder's working set.
func DecodeIndexFrom(r io.Reader) (*Index, error) {
	var idx Index
	if err := json.NewDecoder(r).Decode(&idx); err != nil {
		return nil, fmt.Errorf("cas: parsing index: %w", err)
	}
	if idx.Version != IndexVersion {
		return nil, fmt.Errorf("cas: unsupported index version %d", idx.Version)
	}
	if idx.Objects == nil {
		idx.Objects = map[string]ObjectInfo{}
	}
	for hx, obj := range idx.Objects {
		if err := validateIndexEntry(Digest(digestPrefix+hx), obj.Size); err != nil {
			return nil, err
		}
	}
	return &idx, nil
}

// validateIndexEntry is the per-entry check shared by the snapshot decoder
// and the log replay.
func validateIndexEntry(d Digest, size int64) error {
	if !d.Valid() {
		return fmt.Errorf("cas: index entry %q is not a sha256 hex digest", d.hexPart())
	}
	if size < 0 {
		return fmt.Errorf("cas: index entry %s has negative size %d", d.Short(), size)
	}
	return nil
}

// decodeIndexRecord parses and validates one line of index.json.log.
func decodeIndexRecord(line []byte) (indexRecord, error) {
	var rec indexRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	return rec, validateIndexEntry(rec.Digest, rec.Size)
}

// loadIndex reads the index snapshot (an absent one is empty) and replays
// the log over it.
func loadIndex(path string) (*Index, error) {
	idx, err := loadIndexSnapshot(path)
	if err != nil {
		return nil, err
	}
	idx.path = path
	idx.log = newMetaLog(path)
	err = idx.log.replay(func(line []byte) error {
		rec, err := decodeIndexRecord(line)
		if err == nil {
			idx.set(rec.Digest, rec.Size)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

func loadIndexSnapshot(path string) (*Index, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Index{Version: IndexVersion, Objects: map[string]ObjectInfo{}}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeIndexFrom(f)
}

// set records an object in memory only, reporting whether the index changed.
func (idx *Index) set(d Digest, size int64) bool {
	hx := d.hexPart()
	if _, ok := idx.Objects[hx]; ok {
		return false
	}
	idx.Objects[hx] = ObjectInfo{Size: size}
	return true
}

// add records an object durably: one fsynced log line, then the in-memory
// entry — in that order, so memory never claims what disk lacks. An object
// already indexed costs nothing.
func (idx *Index) add(d Digest, size int64) error {
	if _, ok := idx.Objects[d.hexPart()]; ok {
		return nil
	}
	if err := idx.log.append(indexRecord{Digest: d, Size: size}); err != nil {
		return err
	}
	idx.set(d, size)
	return nil
}

// save compacts: it writes the whole index as a new snapshot atomically
// (temp file + rename — a crash mid-write leaves the previous snapshot
// intact, never a torn one) and then drops the log the snapshot now covers.
func (idx *Index) save() error {
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return err
	}
	if err := appendlog.WriteFileAtomic(idx.path, data, 0o644); err != nil {
		return err
	}
	return idx.log.compacted()
}
