"""Ologs: presented categories with linguistic labels, instances, and mappings."""

__version__ = "0.1.0"
