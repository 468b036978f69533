//go:build race

package elp2im

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation allocates and whose sync.Pool drops items at
// random — the allocation gates skip themselves there (they run in the
// plain test pass).
const raceEnabled = true
