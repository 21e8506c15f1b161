// Package pstore is the fingerprint fixture: the analyzer only
// activates in a package named pstore, walking the cache-key roots
// Config and JoinSpec.
package pstore

// PowerModel mimics the hardware power-model interface.
type PowerModel interface{ Watts() float64 }

type nested struct {
	Scale float64
	Ptr   *int // want `cache-key field Config\.Nested\.Ptr \(type \*int\) defeats content fingerprinting under %#v: a pointer`
}

// Config is a cache-key root.
type Config struct {
	BatchRows int
	Name      string
	Hook      func()     // want `cache-key field Config\.Hook .* a func value`
	Events    chan int   // want `cache-key field Config\.Events .* a channel`
	Model     PowerModel // want `cache-key field Config\.Model .* an interface renders its dynamic value, which may be a pointer`
	Nested    nested
	//lint:fingerprinted fixture: a field the key renders by other means
	Noted *nested
}

// JoinSpec is the second cache-key root.
type JoinSpec struct {
	Sizes  []int
	ByName map[string]*nested // want `cache-key field JoinSpec\.ByName\[\] .* a pointer`
	Bad    []chan int         // want `cache-key field JoinSpec\.Bad\[\] .* a channel`
}
