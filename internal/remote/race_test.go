//go:build race

package remote

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a share of what is put back and a recorded run can differ, so an
// allocation count reads higher than in a plain build.
const raceEnabled = true
