package covert_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"untangle/internal/covert"
	"untangle/internal/partition"
	"untangle/internal/sim"
)

// simTableConfig is the table configuration the simulator derives for an
// Untangle scheme at scale 0.002 (Unit = Cooldown/40): 129-symbol alphabets
// over a 40-unit uniform delay, the table every campaign and benchmark
// process builds at start-up.
func simTableConfig(maxMaintains int) covert.TableConfig {
	s := sim.Scaled(partition.DefaultScheme(partition.Untangle), 0.002).Scheme
	return covert.TableConfig{
		Unit:         s.Cooldown / 40,
		Cooldown:     s.Cooldown,
		DelayWidth:   s.DelayWidth,
		MaxMaintains: maxMaintains,
	}
}

// entryBits is a RateEntry with its float fields as IEEE-754 bit patterns.
type entryBits struct {
	maintains int
	rate      uint64
	bits      uint64
	avgTime   time.Duration
	verified  bool
}

// goldenEntries pins simTableConfig(16) bit for bit. The Untangle leakage
// digests of the benchmark's output check depend on every one of these
// values, so any change to the solver's floating-point evaluation order
// shows up here first.
var goldenEntries = []entryBits{
	{0, 0x4121bbd0aea22ae1, 0x3ffd9fd13d66dc28, 3197, true},
	{1, 0x41171970092f0270, 0x4003588128be188e, 6423, true},
	{2, 0x4111ef95e10ed7e4, 0x400618624cfa7af0, 9463, true},
	{3, 0x410de13c0bb1e40f, 0x40080648cb878300, 12369, true},
	{4, 0x4109dcbe073e1ba6, 0x400976b45c6868a8, 15166, true},
	{5, 0x4106ef9b1144dfa4, 0x400a936b92399d58, 17870, true},
	{6, 0x4104afc1ffb824bb, 0x400b74f262dc6d74, 20494, true},
	{7, 0x4102e40c5e6527d1, 0x400c2b0770a3dd34, 23050, true},
	{8, 0x41016a9ff0b4c8d4, 0x400cc058924e498c, 25547, true},
	{9, 0x41002dff2fa9f692, 0x400d3c6adfe38080, 27994, true},
	{10, 0x40fe3f8f3a5dde38, 0x400da4b0ceb54578, 30397, true},
	{11, 0x40fc6bdde73e36de, 0x400dfd33a2b3eb04, 32763, true},
	{12, 0x40fad26ab0cbcff8, 0x400e48ffa623ee10, 35096, true},
	{13, 0x40f9687165ddab4d, 0x400e8a6bc7339e08, 37401, true},
	{14, 0x40f825c29dd0dc20, 0x400ec34a5903a570, 39680, true},
	{15, 0x40f704050b95d1bc, 0x400ef50b0e503984, 41937, true},
	{16, 0x40f5fe360faa11d8, 0x400f20d322d34d84, 44174, true},
}

func tableBits(tbl *covert.RateTable) []entryBits {
	out := make([]entryBits, tbl.Len())
	for m := range out {
		e := tbl.Entry(m)
		out[m] = entryBits{e.Maintains, math.Float64bits(e.RatePerSecond), math.Float64bits(e.BitsPerTransmission), e.AvgTime, e.Verified}
	}
	return out
}

func TestRateTableGoldenBits(t *testing.T) {
	maxMaintains := 16
	if testing.Short() {
		// Entries 0..2 of the same configuration: each entry's solve is
		// independent of the table length.
		maxMaintains = 2
	}
	tbl, err := covert.NewRateTable(simTableConfig(maxMaintains))
	if err != nil {
		t.Fatal(err)
	}
	got := tableBits(tbl)
	if len(got) != maxMaintains+1 {
		t.Fatalf("table has %d entries, want %d", len(got), maxMaintains+1)
	}
	for m, g := range got {
		if want := goldenEntries[m]; g != want {
			t.Errorf("entry %d = {rate %#x bits %#x avg %d verified %v}, want {rate %#x bits %#x avg %d verified %v}",
				m, g.rate, g.bits, int64(g.avgTime), g.verified, want.rate, want.bits, int64(want.avgTime), want.verified)
		}
	}
}

// smallTableConfig is a cheap configuration (12-symbol alphabets, short
// solves) for tests that build several tables, including under -race.
func smallTableConfig() covert.TableConfig {
	return covert.TableConfig{
		Unit:         100 * time.Microsecond,
		Cooldown:     time.Millisecond,
		DelayWidth:   time.Millisecond,
		MaxMaintains: 5,
		GridStep:     6,
		Solver: covert.SolverConfig{
			MaxDinkelbachRounds: 6,
			Tolerance:           1e-5,
			InnerIterations:     100,
			InnerStep:           0.3,
			UpperBoundSlack:     1e-3,
			VerifyIterations:    200,
		},
	}
}

func TestRateTableSameBitsAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var tables [][]entryBits
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		tbl, err := covert.NewRateTable(smallTableConfig())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		tables = append(tables, tableBits(tbl))
	}
	for m := range tables[0] {
		if tables[0][m] != tables[1][m] {
			t.Errorf("entry %d differs: GOMAXPROCS=1 %+v, GOMAXPROCS=2 %+v", m, tables[0][m], tables[1][m])
		}
	}
}

func TestRateTableReportsLowestFailingEntry(t *testing.T) {
	// With a 1 ns unit, a cooldown of MaxInt64/2 units is valid for entry 0
	// but overflows the duration grid of every later entry, so entries
	// 1..MaxMaintains all fail. The error must name entry 1, as a serial
	// build would, whichever failure the workers reach first.
	cfg := covert.TableConfig{
		Unit:         time.Nanosecond,
		Cooldown:     time.Duration(math.MaxInt64 / 2),
		MaxMaintains: 8,
		Solver:       smallTableConfig().Solver,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for i := 0; i < 5; i++ {
		_, err := covert.NewRateTable(cfg)
		if err == nil {
			t.Fatal("NewRateTable succeeded on an overflowing cooldown")
		}
		if !strings.HasPrefix(err.Error(), "covert: table entry 1: ") {
			t.Fatalf("error %q does not name the lowest failing entry", err)
		}
	}
}

// BenchmarkRateTableBuild measures one full table build at the simulator's
// scale-0.002 configuration: the one-time cost every campaign process pays.
// Run with -cpu 1,2 to see the entry-level parallelism.
func BenchmarkRateTableBuild(b *testing.B) {
	cfg := simTableConfig(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := covert.NewRateTable(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
