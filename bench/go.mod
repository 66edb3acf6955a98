module fexiot/bench

go 1.22

require fexiot v0.0.0

replace fexiot => ../
