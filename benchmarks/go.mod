// The benchmark is a module of its own so that it builds from this
// directory with its own build file; the replace directive points at the
// repository it measures, whose internal packages it may import because
// its module path is nested under theirs.
module paracosm/benchmarks

go 1.23

require paracosm v0.0.0

replace paracosm => ../
