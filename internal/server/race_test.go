//go:build race

package server

// raceEnabled reports that this build runs under the race detector,
// whose sync.Pool drops a quarter of its Puts at random, so pooled
// buffers are reallocated: the allocation bound skips itself there (it
// runs in the plain test pass).
const raceEnabled = true
