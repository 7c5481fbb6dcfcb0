"""WSDL 1.1-style service descriptions with WSDL-S semantic annotations.

Traditional WSDL "provides only syntactical information" (§3.1); Whisper
annotates operations with ontology concepts following WSDL-S.  This package
holds the document model, an XML reader/writer compatible with the paper's
§3.1 listing, a small XML-Schema subset for message payload validation, and
the sample service descriptions used throughout examples and benchmarks.
"""

from .annotations import SemanticAnnotation
from .definitions import (
    Definitions,
    Interface,
    MessagePart,
    Operation,
    WsdlError,
)
from .samples import (
    bank_loans_wsdl,
    healthcare_wsdl,
    insurance_claims_wsdl,
    loan_booking_wsdl,
    loan_desk_wsdl,
    solvency_wsdl,
    student_admin_wsdl,
    student_management_wsdl,
)
from .schema import BUILTIN_TYPES, ComplexType, ElementDecl, Schema, SchemaError
from .xmlio import WSDL_NS, WSSEM_NS, definitions_from_xml, definitions_to_xml

__all__ = [
    "BUILTIN_TYPES",
    "ComplexType",
    "Definitions",
    "ElementDecl",
    "Interface",
    "MessagePart",
    "Operation",
    "Schema",
    "SchemaError",
    "SemanticAnnotation",
    "WSDL_NS",
    "WSSEM_NS",
    "WsdlError",
    "bank_loans_wsdl",
    "definitions_from_xml",
    "definitions_to_xml",
    "healthcare_wsdl",
    "insurance_claims_wsdl",
    "loan_booking_wsdl",
    "loan_desk_wsdl",
    "solvency_wsdl",
    "student_admin_wsdl",
    "student_management_wsdl",
]
