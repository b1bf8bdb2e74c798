// Package registry is the one name registry behind every load kind —
// workloads, tenant mixes and arrival specs. A Registry resolves names
// against a fixed set of code-defined built-ins plus anything
// registered at process start-up (typically loaded from a file), lists
// the valid set in its unknown-name errors, and folds every entry's
// source identity into one fingerprint.
//
// The mutex makes registration safe, but the determinism contract
// (DESIGN.md §3) asks callers to finish registering before building
// runners or harnesses: a fingerprint is a snapshot, not a
// subscription.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// Registry holds the built-ins of one load kind plus its registered
// entries, in registration order.
type Registry[T any] struct {
	// Pkg and Noun phrase errors: "<Pkg>: unknown <Noun> ...".
	Pkg, Noun string
	// Preamble prefixes the fingerprinted listing.
	Preamble string
	// Builtins returns the code-defined entries. It is called on every
	// lookup, so it must return a cached slice (sync.OnceValue).
	Builtins func() []T
	// Check validates an entry and returns its normalized form.
	Check func(T) (T, error)
	// Name and SourceID are the entry's registry name and source
	// identity.
	Name, SourceID func(T) string
	// OnReplace, when set, sees every entry a re-registration displaces.
	OnReplace func(old, new T)

	mu    sync.Mutex
	items []T
	index map[string]int
}

func (r *Registry[T]) builtin(name string) (T, bool) {
	for _, b := range r.Builtins() {
		if r.Name(b) == name {
			return b, true
		}
	}
	var zero T
	return zero, false
}

// Register adds an entry, making it resolvable by name everywhere a
// built-in is. Built-in names are reserved; registering an
// already-registered name replaces the previous entry (the
// file-editing loop). The registry stores the entry's normalized form.
func (r *Registry[T]) Register(v T) error {
	if _, ok := r.builtin(r.Name(v)); ok {
		return fmt.Errorf("%s: %q is a built-in %s and cannot be replaced", r.Pkg, r.Name(v), r.Noun)
	}
	v, err := r.Check(v)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[r.Name(v)]; ok {
		old := r.items[i]
		r.items[i] = v
		if r.OnReplace != nil {
			r.OnReplace(old, v)
		}
		return nil
	}
	if r.index == nil {
		r.index = map[string]int{}
	}
	r.index[r.Name(v)] = len(r.items)
	r.items = append(r.items, v)
	return nil
}

// Registered returns the registered (non-built-in) entries in
// registration order.
func (r *Registry[T]) Registered() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]T(nil), r.items...)
}

// Reset clears registrations (tests only).
func (r *Registry[T]) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items, r.index = nil, nil
}

// all returns the built-ins followed by the registered entries.
func (r *Registry[T]) all() []T {
	return append(append([]T(nil), r.Builtins()...), r.Registered()...)
}

// Names returns every resolvable name: built-ins first, then
// registered entries in registration order. Unknown-name errors print
// this listing.
func (r *Registry[T]) Names() []string {
	var out []string
	for _, v := range r.all() {
		out = append(out, r.Name(v))
	}
	return out
}

// ByName resolves any known entry, built-in or registered. Unknown
// names error with the full valid list.
func (r *Registry[T]) ByName(name string) (T, error) {
	if v, ok := r.builtin(name); ok {
		return v, nil
	}
	r.mu.Lock()
	i, ok := r.index[name]
	var v T
	if ok {
		v = r.items[i]
	}
	r.mu.Unlock()
	if !ok {
		return v, fmt.Errorf("%s: unknown %s %q (valid: %s)", r.Pkg, r.Noun, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}

// Fingerprint digests the full resolvable set — every name mapped to
// its SourceID, sorted, after the preamble. Identical registrations on
// different machines produce identical fingerprints; any changed
// entry changes it.
func (r *Registry[T]) Fingerprint() string {
	var lines []string
	for _, v := range r.all() {
		lines = append(lines, r.Name(v)+"="+r.SourceID(v))
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(r.Preamble + strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// DecodeFile reads path as one JSON value of type J, rejecting unknown
// fields so a typo fails loudly instead of silently meaning "default",
// and passes it through check (validate and normalize). Errors are
// prefixed "<pkg>: "; a decode failure is described as what.
func DecodeFile[J, T any](path, pkg, what string, check func(J) (T, error)) (T, error) {
	var zero T
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", pkg, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var j J
	if err := dec.Decode(&j); err != nil {
		return zero, fmt.Errorf("%s: %s: %s: %w", pkg, path, what, err)
	}
	v, err := check(j)
	if err != nil {
		return zero, fmt.Errorf("%s: %s: %w", pkg, path, err)
	}
	return v, nil
}
