"""Cost-based abduction and k-best MPE via 0-1 linear constraint systems."""
