package analysis

import "testing"

// oracle is declared in a test file: such types are exempt from the
// shardmerge rules, because test oracles and doubles need no table of their
// own.
type oracle struct{ n int }

func (o *oracle) Add(v int)            { o.n += v }
func (o *oracle) NewShard() Analyzer   { return &oracle{} }
func (o *oracle) Merge(shard Analyzer) { o.n += shard.(*oracle).n }

func TestEquivalence(t *testing.T) {
	table := []Analyzer{&Good{}}
	for _, a := range table {
		a.Add(1)
	}
	o := &oracle{}
	o.Add(1)
	if o.n != 1 {
		t.Fatal("oracle broken")
	}
}
