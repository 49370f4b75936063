module dolxml

go 1.23
