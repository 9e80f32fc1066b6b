package smuvet_test

import (
	"testing"

	"smartusage/internal/smuvet"
	"smartusage/internal/smuvet/smuvettest"
)

// Each analyzer runs alone over its fixture package, so an unexpected
// diagnostic from one analyzer cannot be absorbed by another's want.

func TestDeterminism(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.DeterminismAnalyzer}, "./testdata/src/sim")
}

func TestShardMerge(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.ShardMergeAnalyzer}, "./testdata/src/analysis")
}

// TestShardMergeSketch covers the sketch-backed arm of shardmerge: analyzers
// holding internal/sketch state must appear in a table built inside an
// *Equivalence* test function, not just any table.
func TestShardMergeSketch(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.ShardMergeAnalyzer}, "./testdata/src/sketchtable")
}

func TestGuardedBy(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.GuardedByAnalyzer}, "./testdata/src/guarded")
}

func TestCloseErr(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.CloseErrAnalyzer}, "./testdata/src/wal")
}

func TestAliasRet(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.AliasRetAnalyzer}, "./testdata/src/zerocopy")
}

func TestCommitPair(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.CommitPairAnalyzer}, "./testdata/src/commit")
}

func TestLockOrder(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.LockOrderAnalyzer}, "./testdata/src/collector", "./testdata/src/datasync/wal")
}

// TestStaleAllow exercises the stale-allow sweep: it rides along with any
// analyzer run, so running determinism alone is enough to judge allows that
// name only determinism.
func TestStaleAllow(t *testing.T) {
	smuvettest.Run(t, ".", []*smuvet.Analyzer{smuvet.DeterminismAnalyzer}, "./testdata/src/macro")
}

// TestAllAnalyzers runs the full suite over every fixture at once: the scope
// rules must keep each analyzer silent outside its own fixture, so the same
// want set still matches exactly.
func TestAllAnalyzers(t *testing.T) {
	smuvettest.Run(t, ".", smuvet.All(),
		"./testdata/src/sim",
		"./testdata/src/analysis",
		"./testdata/src/sketchtable",
		"./testdata/src/guarded",
		"./testdata/src/wal",
		"./testdata/src/zerocopy",
		"./testdata/src/commit",
		"./testdata/src/collector",
		"./testdata/src/datasync/wal",
		"./testdata/src/macro",
	)
}
