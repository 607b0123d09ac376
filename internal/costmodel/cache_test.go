package costmodel

import (
	"sync"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
	"github.com/ais-snu/localut/internal/pim"
	"github.com/ais-snu/localut/internal/quant"
)

func TestCacheMatchesChoose(t *testing.T) {
	cfg := pim.DefaultConfig()
	model := Default()
	cache := NewCache()
	for _, f := range quant.Formats {
		want, err := Choose(model, f, 768, 768, 128, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := cache.Choose(model, f, 768, 768, 128, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: cached choice %+v != direct %+v", f.Name(), got, want)
			}
		}
	}
	hits, misses := cache.Stats()
	if misses != int64(len(quant.Formats)) || hits != 2*int64(len(quant.Formats)) {
		t.Fatalf("stats hits=%d misses=%d, want %d/%d", hits, misses,
			2*len(quant.Formats), len(quant.Formats))
	}
}

func TestCacheKeyedByBudget(t *testing.T) {
	model := Default()
	cache := NewCache()
	full := pim.DefaultConfig()
	small := pim.DefaultConfig()
	small.LUTBudgetFrac = 0.1

	a, err := cache.Choose(model, quant.W1A3, 3072, 768, 768, &full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Choose(model, quant.W1A3, 3072, 768, 768, &small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Choose(model, quant.W1A3, 3072, 768, 768, &small)
	if err != nil {
		t.Fatal(err)
	}
	if b != want {
		t.Fatalf("shrunk-budget choice %+v leaked from full-budget entry %+v (want %+v)", b, a, want)
	}
}

func TestCacheForVariant(t *testing.T) {
	cfg := pim.DefaultConfig()
	cache := NewCache()
	for _, v := range []kernels.Variant{kernels.OP, kernels.OPLC, kernels.OPLCRC} {
		want, err := ChooseForVariant(quant.W2A2, v, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := cache.ChooseForVariant(quant.W2A2, v, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: cached p=%d, want %d", v, got, want)
			}
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	cfg := pim.DefaultConfig()
	model := Default()
	cache := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := quant.Formats[i%len(quant.Formats)]
				if _, err := cache.Choose(model, f, 768, 768, 128, &cfg); err != nil {
					t.Error(err)
					return
				}
				if _, err := cache.ChooseForVariant(f, kernels.OPLCRC, &cfg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// The counters move under the cache's lock, so no lookup is lost.
	if hits, misses := cache.Stats(); hits+misses != 2*8*50 {
		t.Errorf("hits %d + misses %d, want %d lookups", hits, misses, 2*8*50)
	}
}
