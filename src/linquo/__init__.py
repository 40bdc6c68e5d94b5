"""Edge ideals of finite simple graphs: powers, linear-quotients
verification, and order constructions (duplication, expansion, pure-power,
admissible, compatible)."""
