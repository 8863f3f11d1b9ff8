module puddles/bench

go 1.21

require puddles v0.0.0

replace puddles => ../
