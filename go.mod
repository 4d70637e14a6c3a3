module gpuddt

go 1.24
