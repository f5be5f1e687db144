package main

// The output check. It hashes every simulated statistic of each unit with
// math.Float64bits, so a unit passes only if the simulator reproduced the
// committed statistics bit for bit. It checks that simulated statistics
// are identical, not that the model is accurate. Where no digest is
// committed for a seed, the paper's shape claims are checked instead.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"

	"untangle/internal/experiments"
	"untangle/internal/partition"
	"untangle/internal/stats"
)

// digests is the committed digest file: unit key to hash, per workload.
// Figure 11 units are seed-independent (the study's inputs are the paper's
// fixed table); mixes-warm units are keyed by seed, because the seed drives
// the secret and the scheme delays; campaign units are keyed by the mix the
// seed selects, because the campaign has no other seeded input.
type digests struct {
	Fig11     map[string]string            `json:"fig11"`
	MixesWarm map[string]map[string]string `json:"mixes-warm"`
	Campaign  map[string]map[string]string `json:"campaign"`
}

func loadDigests(path string) (*digests, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read digests: %w", err)
	}
	var d digests
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

type hasher struct{ h hash.Hash64 }

func newHasher() *hasher { return &hasher{fnv.New64a()} }

func (h *hasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.h.Write(b[:])
}
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}
func (h *hasher) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sensDigest hashes one Figure 11 row: its curve and classification.
func sensDigest(name string, sizes []int64, normIPCBits []uint64, adequate int64, sensitive bool) string {
	h := newHasher()
	h.str(name)
	for i := range sizes {
		h.u64(uint64(sizes[i]))
		h.u64(normIPCBits[i])
	}
	h.u64(uint64(adequate))
	h.u64(boolBit(sensitive))
	return h.sum()
}

func studyDigests(study []experiments.SensitivityResult) map[string]string {
	out := make(map[string]string, len(study))
	for _, r := range study {
		bits := make([]uint64, len(r.NormIPC))
		for i, v := range r.NormIPC {
			bits[i] = math.Float64bits(v)
		}
		out["sens/"+r.Name] = sensDigest(r.Name, r.Sizes, bits, r.Adequate, r.Sensitive)
	}
	return out
}

var mixKinds = []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared}

// mixDigest hashes one mix: every domain's IPC, instruction and cycle
// counts and leakage under every scheme, the normalized IPCs, bits per
// assessment, the maintain fraction and the Table 6 row.
func mixDigest(res *experiments.MixResult) (string, error) {
	h := newHasher()
	h.u64(uint64(res.Mix.ID))
	for _, k := range mixKinds {
		r, ok := res.PerScheme[k]
		if !ok {
			return "", fmt.Errorf("mix %d: no %v result", res.Mix.ID, k)
		}
		for _, d := range r.Domains {
			h.str(d.Name)
			h.u64(d.Instructions)
			h.f64(d.Cycles)
			h.f64(d.IPC)
			h.f64(d.Leakage.TotalBits)
			h.u64(uint64(len(d.Trace)))
		}
		if k == partition.Static {
			continue
		}
		norm, err := res.NormalizedIPC(k)
		if err != nil {
			return "", err
		}
		for _, v := range norm {
			h.f64(v)
		}
	}
	for _, k := range []partition.Kind{partition.TimeBased, partition.Untangle} {
		leak, err := res.LeakagePerAssessment(k)
		if err != nil {
			return "", err
		}
		for _, v := range leak {
			h.f64(v)
		}
	}
	mf, err := res.MaintainFraction(partition.Untangle)
	if err != nil {
		return "", err
	}
	h.f64(mf)
	row, err := res.Table6()
	if err != nil {
		return "", err
	}
	for _, v := range []float64{row.TimeAvgPerAssessment, row.TimeAvgTotal, row.UntangleAvgPerAssess,
		row.UntangleAvgTotal, row.UntangleMaintainFrac, row.ReductionPerAssessment} {
		h.f64(v)
	}
	return h.sum(), nil
}

// paperSensitiveCount is the paper's Figure 11 shape claim: 8 of the 36
// benchmarks need more than the 2 MB Static partition.
const paperSensitiveCount = 8

// checkStudyShape reports an error unless the study classifies exactly
// paperSensitiveCount of 36 benchmarks as LLC-sensitive.
func checkStudyShape(study []experiments.SensitivityResult) error {
	n := 0
	for _, r := range study {
		if r.Sensitive {
			n++
		}
	}
	if len(study) != 36 || n != paperSensitiveCount {
		return fmt.Errorf("Figure 11 shape: %d of %d benchmarks LLC-sensitive, want %d of 36", n, len(study), paperSensitiveCount)
	}
	return nil
}

// checkMixShape reports an error unless Untangle leaks fewer bits per
// assessment than Time on the mix, the paper's Table 6 shape claim.
func checkMixShape(res *experiments.MixResult) error {
	tl, err := res.LeakagePerAssessment(partition.TimeBased)
	if err != nil {
		return err
	}
	ul, err := res.LeakagePerAssessment(partition.Untangle)
	if err != nil {
		return err
	}
	if t, u := stats.Mean(tl), stats.Mean(ul); !(u < t) {
		return fmt.Errorf("mix %d shape: Untangle %.4g bits/assess not below Time %.4g", res.Mix.ID, u, t)
	}
	return nil
}

// unitCheck tallies the per-unit verdicts of one run.
type unitCheck struct {
	attempted, failed int
	errs              []string
	got               map[string]string
}

func newUnitCheck() *unitCheck { return &unitCheck{got: map[string]string{}} }

// unit records one unit's digest and verdict. want is the committed digest
// ("" when none is committed for this input); shape is the shape-claim
// verdict used in its place.
func (c *unitCheck) unit(key, got, want string, shape error) {
	c.attempted++
	c.got[key] = got
	switch {
	case want != "" && got != want:
		c.failed++
		c.errs = append(c.errs, fmt.Sprintf("%s: digest %s, committed %s", key, got, want))
	case want == "" && shape != nil:
		c.failed++
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", key, shape))
	}
}

// fail records a unit that errored before it could be checked.
func (c *unitCheck) fail(key string, err error) {
	c.attempted++
	c.failed++
	c.errs = append(c.errs, fmt.Sprintf("%s: %v", key, err))
}

func (c *unitCheck) merge(o *unitCheck) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.errs = append(c.errs, o.errs...)
	for k, v := range o.got {
		c.got[k] = v
	}
}

// checkStudy verifies a Figure 11 study against the committed digests and
// the shape claim. The shape claim stands in for a unit's digest only when
// none is committed.
func checkStudy(study []experiments.SensitivityResult, want map[string]string) *unitCheck {
	c := newUnitCheck()
	shape := checkStudyShape(study)
	got := studyDigests(study)
	for _, k := range sortedKeys(got) {
		c.unit(k, got[k], want[k], shape)
	}
	if len(study) != 36 {
		c.fail("fig11", shape)
	}
	return c
}

// sensJournalValue is a sensitivity unit as cmd/experiments journals it;
// checkpoint.F64 writes each float as its IEEE-754 bit pattern.
type sensJournalValue struct {
	Name      string   `json:"name"`
	Sizes     []int64  `json:"sizes"`
	NormIPC   []uint64 `json:"norm_ipc"`
	Adequate  int64    `json:"adequate"`
	Sensitive bool     `json:"sensitive"`
}

// journalUnits reads a cmd/experiments checkpoint journal into its unit
// records, key to raw value, in file order.
func journalUnits(path string) (keys []string, values map[string]json.RawMessage, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	values = map[string]json.RawMessage{}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Kind  string          `json:"kind"`
			Key   string          `json:"key"`
			Value json.RawMessage `json:"value"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, nil, fmt.Errorf("journal %s: %w", path, err)
		}
		if rec.Kind == "unit" {
			keys = append(keys, rec.Key)
			values[rec.Key] = rec.Value
		}
	}
	return keys, values, nil
}

// checkCampaign verifies a campaign run from its journal and report: the
// 36 sensitivity units against the Figure 11 digests (the campaign runs the
// same study), the mix unit and the report bytes against the digests
// committed for the mix, falling back to the shape claims read from the
// journal.
func checkCampaign(journalPath string, report []byte, mixID int, d *digests) *unitCheck {
	c := newUnitCheck()
	keys, values, err := journalUnits(journalPath)
	if err != nil {
		c.fail("journal", err)
		return c
	}
	want := d.Campaign[fmt.Sprintf("mix/%d", mixID)]
	var sens []sensJournalValue
	var sensKeys []string
	sensitive := 0
	for _, k := range keys {
		if !strings.HasPrefix(k, "sens/") {
			continue
		}
		var v sensJournalValue
		if err := json.Unmarshal(values[k], &v); err != nil {
			c.fail(k, err)
			continue
		}
		if v.Sensitive {
			sensitive++
		}
		sens, sensKeys = append(sens, v), append(sensKeys, k)
	}
	var studyShape error
	if len(sens) != 36 || sensitive != paperSensitiveCount {
		studyShape = fmt.Errorf("Figure 11 shape: %d of %d benchmarks LLC-sensitive, want %d of 36", sensitive, len(sens), paperSensitiveCount)
	}
	for i, v := range sens {
		c.unit(sensKeys[i], sensDigest(v.Name, v.Sizes, v.NormIPC, v.Adequate, v.Sensitive), d.Fig11[sensKeys[i]], studyShape)
	}
	mixKey := fmt.Sprintf("mix/%d", mixID)
	raw, ok := values[mixKey]
	if !ok {
		c.fail(mixKey, fmt.Errorf("not journaled"))
	} else {
		h := newHasher()
		h.str(mixKey)
		h.str(string(raw))
		c.unit(mixKey, h.sum(), want[mixKey], journalMixShape(raw))
	}
	h := newHasher()
	h.str(string(report))
	c.unit("report", h.sum(), want["report"], reportShape(report, mixID))
	if len(sens) != 36 {
		c.fail("sens", studyShape)
	}
	return c
}

// journalMixShape applies the Table 6 shape claim to a journaled mix unit.
func journalMixShape(raw json.RawMessage) error {
	var v struct {
		Row struct {
			TimePer     uint64 `json:"time_per"`
			UntanglePer uint64 `json:"untangle_per"`
		} `json:"table6"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return err
	}
	t, u := math.Float64frombits(v.Row.TimePer), math.Float64frombits(v.Row.UntanglePer)
	if !(u < t) {
		return fmt.Errorf("Table 6 shape: Untangle %.4g bits/assess not below Time %.4g", u, t)
	}
	return nil
}

// reportShape checks that the report covers the mix it ran and ends with
// the manifest of a complete campaign.
func reportShape(report []byte, mixID int) error {
	if !bytes.Contains(report, []byte(fmt.Sprintf("Mix %d:", mixID))) {
		return fmt.Errorf("report does not cover mix %d", mixID)
	}
	if !bytes.HasSuffix(report, []byte("Completed: 36/36 sensitivity benchmarks, 1/1 mixes.\n")) {
		return fmt.Errorf("report does not end with a complete manifest")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
