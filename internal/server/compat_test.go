package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestReservedSlabKeysHidden is the catalog-hygiene regression test: the
// slab packer's reserved "slab_<n>" carrier objects must never leak into
// /objects, StatAll, or direct GETs, while the user objects packed inside
// them list normally.
func TestReservedSlabKeysHidden(t *testing.T) {
	s, err := Open(StoreConfig{
		Root:          t.TempDir(),
		Nodes:         tnode,
		K:             tk,
		R:             tr,
		UnitSize:      tunit,
		Workers:       2,
		SlabThreshold: 1024,
		SlabWindow:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(NewHandler(s, Config{Logf: t.Logf}))
	t.Cleanup(ts.Close)

	names := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("tiny-%d", i)
		names[name] = randBytes(int64(i), 200+i)
		mustPut(t, s, name, names[name])
	}

	// The packer really did create reserved slab carriers.
	slabKey := ""
	for name := range names {
		meta, err := s.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Slab == nil {
			t.Fatalf("%s was not packed — slab path not exercised", name)
		}
		if !strings.HasPrefix(meta.Slab.Key, "slab_") {
			t.Fatalf("%s packed into non-reserved key %q", name, meta.Slab.Key)
		}
		slabKey = meta.Slab.Key
	}

	// StatAll: every user object, no carriers.
	metas, err := s.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != len(names) {
		t.Fatalf("StatAll returned %d objects, want %d", len(metas), len(names))
	}
	for _, m := range metas {
		if strings.HasPrefix(m.Name, "slab_") {
			t.Fatalf("StatAll leaked reserved key %q", m.Name)
		}
		if _, ok := names[m.Name]; !ok {
			t.Fatalf("StatAll invented object %q", m.Name)
		}
	}

	// /objects: same contract over HTTP.
	resp, err := http.Get(ts.URL + "/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(names) {
		t.Fatalf("/objects returned %d entries, want %d", len(list), len(names))
	}
	for _, e := range list {
		if strings.HasPrefix(e.Name, "slab_") {
			t.Fatalf("/objects leaked reserved key %q", e.Name)
		}
	}

	// A reserved carrier key is not addressable as an object.
	gresp, err := http.Get(ts.URL + "/o/" + slabKey)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body) //nolint:errcheck
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /o/%s = %d, want 404 (reserved keys are not client objects)", slabKey, gresp.StatusCode)
	}
}
