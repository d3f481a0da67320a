//go:build race

package server

// raceEnabled reports whether the race detector is on. It defeats
// sync.Pool caching, so allocation-count assertions skip under it.
const raceEnabled = true
