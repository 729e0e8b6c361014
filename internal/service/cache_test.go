package service

import (
	"fmt"
	"testing"
)

// cacheHash is the i-th distinct content hash of these tests.
func cacheHash(i int) string { return fmt.Sprintf("%064x", i+1) }

// TestResultCacheStoreBacksEvicted: with a data dir, more results than
// the memory layer holds all stay hits after eviction, read back from
// their files, and memory never holds more than maxCachedEnvelopes.
func TestResultCacheStoreBacksEvicted(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(st)
	const n = maxCachedEnvelopes + 40
	for i := 0; i < n; i++ {
		h := cacheHash(i)
		if err := c.put(h, &ResultEnvelope{Kind: KindOne, Hash: h}, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.mem.Len(); got != maxCachedEnvelopes {
		t.Fatalf("memory holds %d envelopes after %d puts, want %d", got, n, maxCachedEnvelopes)
	}
	for i := 0; i < n; i++ {
		h := cacheHash(i)
		env, ok := c.peek(h)
		if !ok || env.Hash != h {
			t.Fatalf("result %d: peek = %+v, %v; want a hit", i, env, ok)
		}
		if got := c.mem.Len(); got > maxCachedEnvelopes {
			t.Fatalf("memory holds %d envelopes, want at most %d", got, maxCachedEnvelopes)
		}
	}
}

// TestResultCacheHitsEarlierProcessResult: a result file another
// process wrote into the data dir hits, with no index built at boot.
func TestResultCacheHitsEarlierProcessResult(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(st)
	earlier, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := cacheHash(0)
	if err := earlier.SaveResult(h, &ResultEnvelope{Kind: KindOne, Hash: h}); err != nil {
		t.Fatal(err)
	}
	if env, ok := c.peek(h); !ok || env.Hash != h {
		t.Fatalf("peek = %+v, %v; want the file's envelope", env, ok)
	}
	if _, ok := c.peek(cacheHash(1)); ok {
		t.Fatal("a hash with no result file hit")
	}
}

// TestResultCacheMemoryOnlyEvicts: without a data dir, the memory layer
// is all there is, so a hash it evicted misses.
func TestResultCacheMemoryOnlyEvicts(t *testing.T) {
	c := newResultCache(nil)
	for i := 0; i <= maxCachedEnvelopes; i++ {
		h := cacheHash(i)
		if err := c.put(h, &ResultEnvelope{Kind: KindOne, Hash: h}, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.peek(cacheHash(0)); ok {
		t.Fatal("the evicted oldest hash hit without a data dir")
	}
	if _, ok := c.peek(cacheHash(maxCachedEnvelopes)); !ok {
		t.Fatal("the newest hash missed")
	}
	if got := c.mem.Len(); got != maxCachedEnvelopes {
		t.Fatalf("memory holds %d envelopes, want %d", got, maxCachedEnvelopes)
	}
}
