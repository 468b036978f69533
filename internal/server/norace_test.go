//go:build !race

package server

// raceEnabled is false in plain builds; the allocation bounds run.
const raceEnabled = false
