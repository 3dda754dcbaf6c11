package analysis

import (
	"reflect"
	"sync"
)

// A FactStore holds the package facts of one load: the loader analyzes
// dependencies first and hands every unit the same store, so a package
// sees what its whole dependency cone exported. One fact per (package,
// analyzer, concrete type), like x/tools: a second export of the same
// type overwrites the first.
type FactStore struct {
	mu sync.Mutex
	m  map[factKey]Fact
}

type factKey struct {
	pkgPath  string
	analyzer string
	typeName string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func typeName(f Fact) string { return reflect.TypeOf(f).String() }

// Set records fact for (pkgPath, analyzer), replacing any previous fact of
// the same concrete type.
func (s *FactStore) Set(pkgPath, analyzer string, fact Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[factKey{pkgPath, analyzer, typeName(fact)}] = fact
}

// Get copies the stored fact for (pkgPath, analyzer) of fact's concrete
// type into fact, reporting whether one was present.
func (s *FactStore) Get(pkgPath, analyzer string, fact Fact) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	stored, ok := s.m[factKey{pkgPath, analyzer, typeName(fact)}]
	if !ok {
		return false
	}
	rv := reflect.ValueOf(fact)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return false
	}
	rv.Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
