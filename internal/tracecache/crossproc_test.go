package tracecache

import (
	"testing"
	"time"
)

// Two Store instances over the same directory stand in for two campaign
// processes sharing a cache: the single-flight lock must exclude them, not
// just goroutines of one process — otherwise both processes generate the
// same cold trace-cache entry.
func TestLockExcludesAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Benchmark: "bench_a", Instructions: 1000}

	unlock1 := s1.Lock(key)
	acquired := make(chan func(), 1)
	go func() { acquired <- s2.Lock(key) }()

	select {
	case <-acquired:
		t.Fatal("second store acquired the entry lock while the first held it")
	case <-time.After(100 * time.Millisecond):
	}

	unlock1()
	select {
	case unlock2 := <-acquired:
		unlock2()
	case <-time.After(5 * time.Second):
		t.Fatal("second store never acquired the lock after release")
	}
}
