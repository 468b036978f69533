//go:build !race

package elp2im

// raceEnabled is false in plain builds; the allocation gates run.
const raceEnabled = false
