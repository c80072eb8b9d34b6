package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// pointsTo is the part of a solution the digest reads; *antgrass.Result
// and *antgrass.Snapshot both provide it.
type pointsTo interface {
	PointsTo(v uint32) []uint32
}

// solutionDigest hashes every variable's sorted points-to set, in
// variable order: two solutions of the same program have equal digests
// exactly when they agree on every variable.
func solutionDigest(r pointsTo, numVars int) string {
	h := sha256.New()
	var buf []byte
	for v := 0; v < numVars; v++ {
		set := r.PointsTo(uint32(v))
		buf = binary.AppendUvarint(buf[:0], uint64(len(set)))
		prev := uint32(0)
		for _, x := range set {
			buf = binary.AppendUvarint(buf, uint64(x-prev))
			prev = x
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recorded is one pinned input with its expected answer.
type recorded struct {
	// Input is the SHA-256 of the generated input: the constraint-file
	// text for synthetic programs, the serialized program for Go code.
	Input string `json:"input"`
	// Solution is the solutionDigest of the correct answer.
	Solution string `json:"solution"`
	// By names what produced Solution: "oracle" for the repository's
	// independent reference evaluator, or the solver configurations that
	// agreed where the reference is too slow to run.
	By string `json:"by"`
	// Go workloads also pin the client answers.
	CallEdges *int `json:"call_edges,omitempty"`
	Warnings  *int `json:"warnings,omitempty"`
}

// digestTable is digests.json: expected inputs and answers, recorded once
// by the record mode and never computed by a benchmark run.
type digestTable struct {
	// Paper maps a run seed to its seed-derived Table 2 programs by
	// name.
	Paper map[string]map[string]recorded `json:"paper"`
	// Table2 holds the programs generated with their profile's own seed:
	// the pinned paper profiles and session-edit's ghostscript.
	Table2 map[string]recorded `json:"table2"`
	// GoStdlib maps a Go toolchain version to the go-stdlib program.
	GoStdlib map[string]recorded `json:"go_stdlib"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %v", err)
	}
	return &t, nil
}

// paper returns the recorded entry for paperInput(seed, name).
func (t *digestTable) paper(seed int64, name string) (recorded, bool) {
	if pinnedProfiles[name] {
		r, ok := t.Table2[name]
		return r, ok
	}
	r, ok := t.Paper[strconv.FormatInt(seed, 10)][name]
	return r, ok
}

// agreementFile is where the paper workloads leave the digests they
// computed for a seed, so that paper-batch and paper-par2 runs of the
// same seed in one checkout must agree with each other.
func agreementFile(seed int64) string {
	return filepath.Join(".bench_build", "perfbench-agree", strconv.FormatInt(seed, 10)+".json")
}

// agree compares got (program name → solution digest) with what an
// earlier run left for seed, records got where nothing was recorded yet,
// and returns the names that disagree.
func agree(seed int64, got map[string]string) ([]string, error) {
	path := agreementFile(seed)
	prev := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
	}
	var bad []string
	changed := false
	for name, d := range got {
		switch p, ok := prev[name]; {
		case !ok:
			prev[name], changed = d, true
		case p != d:
			bad = append(bad, name)
		}
	}
	if !changed {
		return bad, nil
	}
	b, _ := json.Marshal(prev)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return bad, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return bad, err
	}
	return bad, os.Rename(tmp, path)
}
