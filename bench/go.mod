module paropt/bench

go 1.22

require paropt v0.0.0

replace paropt => ../
