"""SPJ view specifications (Definition 2/3 of the paper)."""
