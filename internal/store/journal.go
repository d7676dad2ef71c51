// The write-ahead intent journal: JOURNAL.jsonl records what a Save is
// about to do, so a store that crashed mid-save is diagnosable afterwards.
// Every box — the store root and each shard — keeps its own journal; the
// root journal frames the whole save (begin with the shard count, intents
// for the merged manifest, commit), each shard journal frames that shard's
// artifact writes. The I/O lives on box (journalBegin / journalAppend /
// readJournal); this file is the pure format: framing, parsing, recovery.
//
// Format: one record per line, each line framed as
//
//	<hex sha256 of payload> <compact JSON payload>\n
//
// so a torn or flipped record never parses as a different record. A save
// writes begin (build info) → one intent per integrity-bearing artifact
// (path + content hash) → commit. The journal is rotated at begin — it is
// rewritten atomically to hold only the save in flight — which keeps its
// bytes a pure function of the build: determinism gates that compare whole
// store trees byte-for-byte hold with the journals included, and a resumed
// save ends with journals identical to an uninterrupted one. Appends are
// fsync'd; recovery tolerates a torn tail record (the crash left a prefix
// of a line) without discarding the intact records before it.
//
// Every other artifact a Save writes is named by an intent in some
// journal: the saved tree holds nothing unjournaled, so a resumed save
// matches an uninterrupted one file for file.

package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

const journalName = "JOURNAL.jsonl"

// Journal record operations.
const (
	opBegin  = "begin"
	opIntent = "intent"
	opCommit = "commit"
)

// journalRecord is one journal line's payload.
type journalRecord struct {
	Op       string     `json:"op"`
	Build    *BuildInfo `json:"build,omitempty"`    // opBegin: how the save was configured
	Shards   int        `json:"shards,omitempty"`   // opBegin: shard count of the layout being written
	Replicas int        `json:"replicas,omitempty"` // opBegin: replica count when > 1 (0 means single-copy)
	Path     string     `json:"path,omitempty"`     // opIntent: artifact about to be written
	Hash     string     `json:"hash,omitempty"`     // opIntent: content hash it must have
}

// JournalState classifies what the journal says about the store.
type JournalState int

const (
	// JournalNone: no journal on disk — an empty directory or a store
	// written by something other than Save.
	JournalNone JournalState = iota
	// JournalClean: the last save committed.
	JournalClean
	// JournalInProgress: a save logged begin but never commit — the store
	// holds a mix of the previous state and the interrupted save's
	// artifacts.
	JournalInProgress
	// JournalCorrupt: the journal exists but no intact begin record
	// survives.
	JournalCorrupt
)

func (st JournalState) String() string {
	switch st {
	case JournalNone:
		return "none"
	case JournalClean:
		return "clean"
	case JournalInProgress:
		return "in-progress"
	case JournalCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("state(%d)", int(st))
}

// journalInfo is the recovered content of a journal.
type journalInfo struct {
	State    JournalState
	Begin    *journalRecord  // last intact begin record
	Intents  []journalRecord // intents after that begin
	BadLines int             // unparseable interior records
	TornTail bool            // final record is a newline-less prefix
}

// intentHashes returns the recovered intents as path → expected hash.
func (j *journalInfo) intentHashes() map[string]string {
	out := make(map[string]string, len(j.Intents))
	for _, in := range j.Intents {
		out[in.Path] = in.Hash
	}
	return out
}

// journalLine frames one record for the journal file.
func journalLine(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode journal record: %w", err)
	}
	line := make([]byte, 0, len(payload)+66)
	line = append(line, hashBytes(payload)...)
	line = append(line, ' ')
	line = append(line, payload...)
	return append(line, '\n'), nil
}

// parseJournalLine recovers one record, rejecting any line whose payload
// does not hash to its recorded sum.
func parseJournalLine(line string) (journalRecord, bool) {
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return journalRecord{}, false
	}
	sum, payload := line[:i], line[i+1:]
	if hashBytes([]byte(payload)) != sum {
		return journalRecord{}, false
	}
	var rec journalRecord
	if err := decodeStrict([]byte(payload), &rec); err != nil {
		return journalRecord{}, false
	}
	return rec, true
}

// recoverJournal classifies raw journal bytes. It is a pure function (and
// fuzzed as one): corrupt interior records are counted, a torn tail is
// tolerated, and the state reflects the last intact begin/commit pair.
func recoverJournal(data []byte) journalInfo {
	j := journalInfo{State: JournalCorrupt}
	lines := strings.Split(string(data), "\n")
	if last := len(lines) - 1; lines[last] == "" {
		lines = lines[:last]
	} else {
		j.TornTail = true
	}
	committed := false
	for i, line := range lines {
		rec, ok := parseJournalLine(line)
		if !ok {
			if j.TornTail && i == len(lines)-1 {
				continue // the crash tore this record; the prefix is expected garbage
			}
			j.BadLines++
			continue
		}
		switch rec.Op {
		case opBegin:
			rec := rec
			j.Begin = &rec
			j.Intents = nil
			committed = false
		case opIntent:
			if j.Begin == nil {
				j.BadLines++ // an intent outside any save is misplaced
				continue
			}
			j.Intents = append(j.Intents, rec)
		case opCommit:
			if j.Begin == nil {
				j.BadLines++ // likewise a commit with nothing to commit
				continue
			}
			committed = true
		default:
			j.BadLines++
		}
	}
	switch {
	case j.Begin == nil:
		j.State = JournalCorrupt
	case committed:
		j.State = JournalClean
	default:
		j.State = JournalInProgress
	}
	return j
}

// healTail positions f at its end, first completing a newline-less final
// record (a torn append) so recovery keeps discarding exactly one line.
func healTail(f *os.File) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if end == 0 {
		return nil
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, end-1); err != nil {
		return err
	}
	if buf[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte("\n"))
	return err
}
