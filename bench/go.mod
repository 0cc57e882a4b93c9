module minigraph/bench

go 1.24

require minigraph v0.0.0

replace minigraph => ../
