"""InFine: provenance-aware FD discovery on integrated views (Alg. 1-5)."""
