module datagridflow/bench

go 1.22

require datagridflow v0.0.0

replace datagridflow => ../
