module ecstore/bench

go 1.22

require ecstore v0.0.0

replace ecstore => ../
