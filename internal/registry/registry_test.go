package registry

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

type item struct {
	Name string
	Rev  int
}

func newTestRegistry(replaced *[]item) *Registry[item] {
	return &Registry[item]{
		Pkg:      "test",
		Noun:     "thing",
		Preamble: "test|",
		Builtins: sync.OnceValue(func() []item { return []item{{Name: "a"}, {Name: "b"}} }),
		Check: func(it item) (item, error) {
			if it.Name == "" {
				return it, errors.New("test: missing a name")
			}
			if it.Rev == 0 {
				it.Rev = 1 // the normalized form
			}
			return it, nil
		},
		Name:      func(it item) string { return it.Name },
		SourceID:  func(it item) string { return fmt.Sprint(it.Rev) },
		OnReplace: func(old, _ item) { *replaced = append(*replaced, old) },
	}
}

// TestRegistryLifecycle: built-ins are reserved, registrations are
// normalized and listed after the built-ins, re-registration replaces
// (reporting the displaced entry), unknown names list the valid set,
// and the fingerprint tracks every change.
func TestRegistryLifecycle(t *testing.T) {
	var replaced []item
	r := newTestRegistry(&replaced)
	empty := r.Fingerprint()
	if err := r.Register(item{Name: "a", Rev: 2}); err == nil || !strings.Contains(err.Error(), `test: "a" is a built-in thing`) {
		t.Fatalf("built-in name accepted (err=%v)", err)
	}
	if err := r.Register(item{}); err == nil {
		t.Fatal("invalid entry accepted")
	}
	if err := r.Register(item{Name: "c"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.ByName("c"); got.Rev != 1 {
		t.Fatalf("registered entry not normalized: %+v", got)
	}
	withC := r.Fingerprint()
	if withC == empty {
		t.Fatal("fingerprint ignores registrations")
	}
	if err := r.Register(item{Name: "c", Rev: 5}); err != nil {
		t.Fatal(err)
	}
	if len(replaced) != 1 || replaced[0].Rev != 1 {
		t.Fatalf("OnReplace saw %+v, want the displaced rev 1", replaced)
	}
	if r.Fingerprint() == withC {
		t.Fatal("fingerprint ignores a replaced definition")
	}
	if got := strings.Join(r.Names(), ","); got != "a,b,c" {
		t.Fatalf("Names() = %s", got)
	}
	if _, err := r.ByName("z"); err == nil || err.Error() != `test: unknown thing "z" (valid: a, b, c)` {
		t.Fatalf("unknown-name error = %v", err)
	}
	r.Reset()
	if r.Fingerprint() != empty {
		t.Fatal("Reset left registrations behind")
	}
}

// TestRegistryConcurrentUse exercises registration and resolution from
// many goroutines (run under -race).
func TestRegistryConcurrentUse(t *testing.T) {
	var replaced []item
	r := newTestRegistry(&replaced)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("n%d", i)
			if err := r.Register(item{Name: name}); err != nil {
				t.Error(err)
			}
			if _, err := r.ByName(name); err != nil {
				t.Error(err)
			}
			r.Names()
			r.Fingerprint()
		}(i)
	}
	wg.Wait()
	if n := len(r.Names()); n != 10 {
		t.Fatalf("%d names, want 10", n)
	}
}
